"""Persisted per-machine dispatch policies.

The runtime's dispatch choices — pool vs inline (``min_parallel_bytes``)
and the gateway batch bucket — were fixed constants measured once on one
machine (PR 5's ``MEASURED_CROSSOVER_BYTES``).  The paper's central
observation is that these operating points are *per-kernel and
per-platform*, derived from machine facts and fixed before the run; this
module makes them per-machine data instead of code.  Nothing here times
anything: a table is read when a dispatch is compiled.

A :class:`PolicyTable` is one machine's section of a JSON policy file
keyed by :func:`~repro.arch.host.machine_fingerprint`.  Entries are keyed
by ``kernel[output-set]@shape-bucket`` (bucket = next power of two of the
item count, ``*`` for any shape) and record the chosen dispatch
configuration plus how it was obtained (``bootstrap`` from the analytic
model, ``tuned`` from a measurement such as ``python -m repro scaling
--crossover``, ``pinned`` by an operator).

Resolution order for the executor's crossover (satellite of ISSUE 10):

1. ``REPRO_CROSSOVER_BYTES`` env var — explicit operator override;
2. a policy entry for this machine's fingerprint in the policy file;
3. the documented last-resort default (``MEASURED_CROSSOVER_BYTES``).
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import asdict, dataclass, field

from ..errors import ConfigurationError

#: Env var overriding every crossover lookup (bytes, decimal integer).
CROSSOVER_ENV = "REPRO_CROSSOVER_BYTES"

#: Env var overriding the default policy-file location.
POLICY_PATH_ENV = "REPRO_POLICY_PATH"

POLICY_VERSION = 1

#: Bootstrap clamp: the analytic model is a prior, not a measurement, so
#: seeded crossovers are kept inside the band the PR 5 study measured
#: plausible on real hosts (256 KiB .. 16 MiB).
BOOTSTRAP_MIN_BYTES = 1 << 18
BOOTSTRAP_MAX_BYTES = 1 << 24

WILDCARD = "*"


def default_policy_path() -> str:
    """Policy-file location: ``REPRO_POLICY_PATH`` or the user cache."""
    env = os.environ.get(POLICY_PATH_ENV)
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "repro",
                        "policy.json")


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
        if self.source not in ("bootstrap", "tuned", "pinned"):
            raise ConfigurationError(
                f"policy source must be bootstrap/tuned/pinned, "
                f"got {self.source!r}"
            )

    def to_json(self) -> dict:
        return {k: v for k, v in asdict(self).items() if v is not None}

    @classmethod
    def from_json(cls, data: dict) -> "PolicyEntry":
        # Unknown keys are dropped: files written by earlier versions
        # carry fields (tier, backend, tuner counters) nothing reads.
        known = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in data.items() if k in known})


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

    def _keys_for(self, kernel: str, outputs, n: int | None):
        keys = []
        if n is not None:
            keys.append(entry_key(kernel, outputs, shape_bucket(n)))
        keys.append(entry_key(kernel, outputs))
        keys.append(entry_key(WILDCARD, outputs))
        return keys

    def lookup(self, kernel: str, outputs=("price",),
               n: int | None = None) -> PolicyEntry | None:
        for key in self._keys_for(kernel, outputs, n):
            entry = self.entries.get(key)
            if entry is not None:
                return entry
        return None

    def value(self, field: str, kernel: str, outputs=("price",),
              n: int | None = None):
        """Most-specific non-None value of one knob.

        An entry that does not set ``field`` (a bucket entry may only
        pick a bucket width) falls through to the next-more-general
        key instead of masking it.
        """
        for key in self._keys_for(kernel, outputs, n):
            entry = self.entries.get(key)
            if entry is not None:
                v = getattr(entry, field)
                if v is not None:
                    return v
        return None

    def min_parallel_bytes(self, kernel: str | None = None,
                           outputs=("price",),
                           n: int | None = None) -> int | None:
        """The policy's crossover for a kernel, or the global entry when
        no kernel is named (``default_executor`` has no kernel yet)."""
        return self.value("min_parallel_bytes", kernel or WILDCARD,
                          outputs, n)

    def summary(self) -> dict:
        """Compact per-entry view for status/stats reporting."""
        return {
            key: {
                "min_parallel_bytes": e.min_parallel_bytes,
                "bucket_width": e.bucket_width, "source": e.source,
            }
            for key, e in sorted(self.entries.items())
        }

    # -- persistence ---------------------------------------------------

    def to_json(self) -> dict:
        return {
            "facts": self.facts,
            "entries": {k: e.to_json() for k, e in self.entries.items()},
        }

    def save(self, path: str | None = None) -> str:
        """Merge this machine's section into the policy file.

        Other machines' sections are preserved; the write is atomic
        (tmp + rename) so a crashed writer never truncates the file.
        """
        path = path or default_policy_path()
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
    def load(cls, path: str | None = None,
             fingerprint: str | None = None,
             missing_ok: bool = True) -> "PolicyTable":
        """This machine's section of the policy file (empty if absent)."""
        path = path or default_policy_path()
        doc = _read_file(path)
        if not doc and not missing_ok:
            raise ConfigurationError(f"no policy file at {path}")
        if fingerprint is None:
            from ..arch.host import machine_fingerprint
            fingerprint = machine_fingerprint()
        section = doc.get("machines", {}).get(fingerprint, {})
        table = cls(fingerprint=fingerprint,
                    facts=section.get("facts", {}))
        for key, data in section.get("entries", {}).items():
            table.entries[key] = PolicyEntry.from_json(data)
        return table


def _read_file(path: str) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError):
        return {}
    return doc if isinstance(doc, dict) else {}


def bootstrap(table: PolicyTable | None = None) -> PolicyTable:
    """Seed a policy table from the analytic model.

    For every parallel-capable kernel the modeled serial/parallel
    crossover (``repro.tune.space``) becomes a ``bootstrap`` entry's
    ``min_parallel_bytes``, clamped to the plausible band.  Pure model
    evaluation — no micro-benchmarks — so it is cheap enough to run on
    first use of a machine with no policy file.
    """
    from .. import registry
    from .space import host_like_spec, modeled_crossover_bytes

    table = table or PolicyTable()
    spec = host_like_spec(table.facts or None)
    values = []
    for kernel in registry.parallel_kernels():
        try:
            xover = modeled_crossover_bytes(kernel, spec)
        except Exception:
            continue
        xover = max(BOOTSTRAP_MIN_BYTES, min(BOOTSTRAP_MAX_BYTES,
                                             int(xover)))
        values.append(xover)
        key = entry_key(kernel)
        if key not in table.entries:
            table.entries[key] = PolicyEntry(
                min_parallel_bytes=xover, source="bootstrap")
    gkey = entry_key(WILDCARD)
    if values and gkey not in table.entries:
        # The global fallback is the most conservative (largest) kernel
        # crossover: inlining a bit long is cheap, pooling early is not.
        table.entries[gkey] = PolicyEntry(
            min_parallel_bytes=max(values), source="bootstrap")
    return table


def resolve_crossover_bytes(kernel: str | None = None,
                            outputs=("price",),
                            n: int | None = None,
                            policy: PolicyTable | None = None,
                            default: int = 0) -> int:
    """The satellite's resolution chain: env > policy > default.

    When no ``policy`` is passed, the policy file is consulted only if
    it already exists — a machine without one gets exactly the
    historical constant behaviour, bit for bit.
    """
    env = os.environ.get(CROSSOVER_ENV)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ConfigurationError(
                f"{CROSSOVER_ENV} must be an integer byte count, "
                f"got {env!r}"
            ) from None
    if policy is None and os.path.exists(default_policy_path()):
        policy = PolicyTable.load()
    if policy is not None:
        value = policy.min_parallel_bytes(kernel, outputs, n)
        if value is not None:
            return value
    return default


def load_policy(spec, bootstrap_missing: bool = True):
    """Resolve a CLI ``--policy`` value to a table (or None for fixed).

    ``"fixed"``/``None`` mean no table (the historical constants);
    ``"auto"`` loads this machine's section of the default policy file
    (bootstrapping from the analytic model when empty); a path loads
    that file and requires it to exist; a :class:`PolicyTable` passes
    through.
    """
    if spec is None or spec == "fixed":
        return None
    if isinstance(spec, PolicyTable):
        return spec
    if spec == "auto":
        table = PolicyTable.load()
        if not table.entries and bootstrap_missing:
            table = bootstrap(table)
        return table
    return PolicyTable.load(spec, missing_ok=False)
