"""A persisted per-machine policy table, kept for perfbench's probes.

Nothing in the runtime reads this module: the inline-vs-pool crossover
is ``SlabExecutor.min_parallel_bytes``, set at construction
(``default_executor()`` carries the measured
``MEASURED_CROSSOVER_BYTES``), and the gateway's batch widths are
``bucket_width``'s powers of two.  What stays is the table and its file
format, because perfbench's ``tune.policy_lookup_us`` and
``tune.policy_load_ms`` time :meth:`PolicyTable.lookup` and
:meth:`PolicyTable.load`.  It goes when a benchmark change drops those
two metrics.

A :class:`PolicyTable` is one machine's section of a JSON policy file
keyed by :func:`~repro.arch.host.machine_fingerprint`.  Entries are keyed
by ``kernel[output-set]@shape-bucket`` (bucket = next power of two of the
item count, ``*`` for any shape) and record a dispatch configuration
plus how it was obtained (``bootstrap``, ``tuned`` or ``pinned``).
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import asdict, dataclass, field

from ..errors import ConfigurationError

POLICY_VERSION = 1

WILDCARD = "*"

#: How an entry was obtained (see the module docstring).
SOURCES = ("bootstrap", "tuned", "pinned")


def shape_bucket(n: int) -> int:
    """Smallest power of two >= ``n`` — the policy's shape key.

    Bucketing keeps the table small and matches the gateway's
    power-of-two batch widths, so one entry covers one staging shape.
    """
    if n < 1:
        raise ConfigurationError(f"shape_bucket needs n >= 1, got {n}")
    return 1 << (n - 1).bit_length()


def entry_key(kernel: str, outputs=("price",), bucket=None) -> str:
    """``kernel[output-set]@bucket`` — the policy table's entry key."""
    outs = "+".join(outputs) if outputs else "price"
    b = WILDCARD if bucket is None else str(int(bucket))
    return f"{kernel}[{outs}]@{b}"


@dataclass
class PolicyEntry:
    """One dispatch decision: which knobs to set for one (kernel,
    output set, shape bucket) on one machine."""

    min_parallel_bytes: int | None = None
    bucket_width: int | None = None
    source: str = "bootstrap"        # bootstrap | tuned | pinned

    def __post_init__(self):
        if self.source not in SOURCES:
            raise ConfigurationError(
                f"policy source must be bootstrap/tuned/pinned, "
                f"got {self.source!r}"
            )

    def to_json(self) -> dict:
        return {k: v for k, v in asdict(self).items() if v is not None}

    @classmethod
    def from_json(cls, data) -> "PolicyEntry | None":
        """The entry ``data`` describes, or ``None`` when it is not one.

        The file comes from outside the program, so a malformed entry
        (not an object, a non-integer knob, an unknown source) is
        dropped like unparseable JSON rather than failing the load.
        Unknown keys are dropped too: files written by earlier versions
        carry fields (tier, backend, tuner counters) nothing reads.
        """
        if not isinstance(data, dict):
            return None
        kw = {k: v for k, v in data.items() if k in cls.__dataclass_fields__}
        if kw.get("source", "bootstrap") not in SOURCES:
            return None
        for knob in ("min_parallel_bytes", "bucket_width"):
            v = kw.get(knob)
            if v is not None and (isinstance(v, bool)
                                  or not isinstance(v, int)):
                return None
        return cls(**kw)


@dataclass
class PolicyTable:
    """One machine's dispatch policies.

    ``entries`` maps :func:`entry_key` strings to :class:`PolicyEntry`.
    Lookup is most-specific-first: the exact shape bucket, then the
    kernel's wildcard entry, then the global ``*`` kernel entry.
    """

    fingerprint: str = ""
    facts: dict = field(default_factory=dict)
    entries: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.fingerprint:
            from ..arch.host import host_facts, machine_fingerprint
            self.facts = self.facts or host_facts()
            self.fingerprint = machine_fingerprint(self.facts)

    def set(self, kernel: str, entry: PolicyEntry, outputs=("price",),
            bucket=None) -> None:
        self.entries[entry_key(kernel, outputs, bucket)] = entry

    def lookup(self, kernel: str, outputs=("price",),
               n: int | None = None) -> PolicyEntry | None:
        keys = [entry_key(kernel, outputs), entry_key(WILDCARD, outputs)]
        if n is not None:
            keys.insert(0, entry_key(kernel, outputs, shape_bucket(n)))
        for key in keys:
            entry = self.entries.get(key)
            if entry is not None:
                return entry
        return None

    # -- persistence ---------------------------------------------------

    def to_json(self) -> dict:
        return {
            "facts": self.facts,
            "entries": {k: e.to_json() for k, e in self.entries.items()},
        }

    def save(self, path: str) -> str:
        """Merge this machine's section into the policy file.

        Other machines' sections are preserved; the write is atomic
        (tmp + rename) so a crashed writer never truncates the file.
        """
        doc = _read_file(path)
        doc.setdefault("machines", {})[self.fingerprint] = self.to_json()
        doc["version"] = POLICY_VERSION
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".",
                                   prefix=".policy-", suffix=".json")
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(doc, fh, indent=2, sort_keys=True)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return path

    @classmethod
    def load(cls, path: str,
             fingerprint: str | None = None) -> "PolicyTable":
        """This machine's section of the policy file (empty if absent).

        Any part of it that is not the shape :meth:`save` writes — a
        section that is not an object, a malformed entry — is dropped.
        """
        doc = _read_file(path)
        if fingerprint is None:
            from ..arch.host import machine_fingerprint
            fingerprint = machine_fingerprint()
        section = _object(_object(doc.get("machines")).get(fingerprint))
        table = cls(fingerprint=fingerprint,
                    facts=_object(section.get("facts")))
        for key, data in _object(section.get("entries")).items():
            entry = PolicyEntry.from_json(data)
            if entry is not None:
                table.entries[key] = entry
        return table


def _object(value) -> dict:
    """``value`` if it is a JSON object, else an empty one."""
    return value if isinstance(value, dict) else {}


def _read_file(path: str) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError):
        return {}
    return _object(doc)
