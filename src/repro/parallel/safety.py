"""Runtime write-safety checks for slab dispatch.

The shared-memory process backend gives every worker a view into the
same segments, so the only thing standing between a slab plan and
silently corrupted results is the discipline that slab write-ranges
never overlap.  :func:`validate_write_plan` turns that discipline into
an assertion executed **before any worker runs**:

* the slab plan's ``(start, stop)`` ranges must be pairwise disjoint
  and in bounds — two slabs that both own index ``i`` would both write
  ``out[i]``;
* an array listed in ``writes`` must be ``sliced`` (each slab writes
  only its own ``[start:stop]`` view).  A ``shared`` array is handed
  whole to every slab, so writing it from more than one slab is a race
  by construction;
* two ``writes`` arrays must not alias the same memory (e.g. the same
  buffer dispatched under two names, or two overlapping views);
* a ``writes`` name must not simultaneously appear in ``consts`` —
  the kernel would mutate the staged array while every slab reads the
  pickled constant of the same name, a silent divergence between
  backends;
* when the dispatch declares a multi-output schema (``outputs=``,
  mapping each logical output name to the write arrays that carry it),
  the mapping must be exact: every referenced array is declared in
  ``writes``, no array backs two logical outputs, and no declared
  write is left outside the schema — a written-but-undeclared array
  would silently vanish from the named result.

The static counterpart is rule R005 of ``python -m repro lint``, which
cross-checks at the source level that every array a slab body mutates
is declared in ``writes=`` (and, for multi-output sites, that the
``outputs=`` schema and ``writes=`` agree).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError, WriteRaceError


def validate_slab_plan(slabs, n: int) -> None:
    """Assert the plan's ranges partition ``range(n)`` without overlap.

    Raises :class:`WriteRaceError` naming the first offending pair, or
    :class:`ConfigurationError` for out-of-bounds/inverted ranges.
    """
    for a, b in slabs:
        if not (0 <= a <= b <= n):
            raise ConfigurationError(
                f"slab range ({a}, {b}) is not within [0, {n}]")
    ordered = sorted(range(len(slabs)), key=lambda i: slabs[i])
    for prev, cur in zip(ordered, ordered[1:]):
        if slabs[prev][1] > slabs[cur][0]:
            raise WriteRaceError(
                f"slab ranges overlap: slab {prev} covers "
                f"{tuple(slabs[prev])} and slab {cur} covers "
                f"{tuple(slabs[cur])}; two workers would write the same "
                f"output indices"
            )


def validate_outputs_schema(outputs, writes) -> tuple:
    """Check a multi-output declaration against the ``writes`` set.

    ``outputs`` maps each logical output name to the tuple of write
    arrays that carry it (one logical output may span several arrays —
    e.g. ``"price"`` backed by call and put vectors).  Returns the
    schema normalised to ``((logical, (array, ...)), ...)`` in
    declaration order; raises :class:`ConfigurationError` on any
    mismatch with ``writes``.
    """
    writes = tuple(writes)
    if not outputs:
        raise ConfigurationError(
            "outputs= schema must declare at least one logical output")
    norm = []
    referenced: list = []
    for logical, names in outputs.items():
        names = (names,) if isinstance(names, str) else tuple(names)
        if not names:
            raise ConfigurationError(
                f"output {logical!r} references no write arrays")
        norm.append((logical, names))
        referenced.extend(names)
    if len(set(referenced)) != len(referenced):
        dupes = sorted({x for x in referenced if referenced.count(x) > 1})
        raise ConfigurationError(
            f"write arrays {dupes} back more than one declared output")
    missing = sorted(set(referenced) - set(writes))
    if missing:
        raise ConfigurationError(
            f"outputs= references arrays {missing} that are not "
            f"declared in writes=; the slab body never fills them "
            f"(declared-but-unwritten output)")
    orphans = sorted(set(writes) - set(referenced))
    if orphans:
        raise ConfigurationError(
            f"writes= declares arrays {orphans} that no outputs= entry "
            f"references; their results would be written but dropped "
            f"from the named result (written-but-undeclared output)")
    return tuple(norm)


def validate_write_plan(slabs, n: int, *, sliced: dict, shared: dict,
                        writes, consts: dict, outputs=None) -> None:
    """Full write-safety check for one slab dispatch.

    Run once per compile (:func:`freeze_write_plan`, so also once per
    ``map_shm`` one-shot) on every backend — the race is a property of
    the plan, not of the pool — so a bad dispatch fails identically
    under serial, thread, process and daemon execution, before any slab
    task starts.
    """
    writes = tuple(writes)
    if outputs is not None:
        validate_outputs_schema(outputs, writes)
    clashing = sorted(set(writes) & set(consts))
    if clashing:
        raise ConfigurationError(
            f"names {clashing} appear in both writes= and consts=: the "
            f"slab body would mutate the staged array while every slab "
            f"reads a pickled constant of the same name; pass the array "
            f"through sliced=/shared= only"
        )
    racing = sorted(w for w in writes if w in shared and w not in sliced)
    if racing and len(slabs) > 1:
        raise WriteRaceError(
            f"shared arrays {racing} are listed in writes=: every slab "
            f"receives the whole array, so {len(slabs)} slabs would "
            f"write it concurrently; dispatch written arrays through "
            f"sliced= so each slab owns a disjoint [start:stop] range"
        )
    written = [(name, np.asarray(sliced[name] if name in sliced
                                 else shared[name]))
               for name in writes]
    for i, (name_a, arr_a) in enumerate(written):
        for name_b, arr_b in written[i + 1:]:
            if np.shares_memory(arr_a, arr_b):
                raise WriteRaceError(
                    f"write arrays {name_a!r} and {name_b!r} share "
                    f"memory: slabs writing one would race with slabs "
                    f"writing the other"
                )
    if writes:
        validate_slab_plan(slabs, n)


@dataclass(frozen=True)
class WritePlan:
    """A validated-once write plan, as carried by a compiled dispatch.

    :meth:`~repro.parallel.slab.SlabExecutor.compile_shm` validates its
    dispatch exactly once at plan-compile time and freezes the outcome
    here; replays (``CompiledDispatch.run``) trust the record instead of
    re-running :func:`validate_write_plan` per call.  Safe because every
    input to the validation — the slab ranges, the array identities, the
    writes/consts names — is captured by the compiled dispatch and
    cannot change between replays.
    """

    n: int
    slabs: tuple                   # ((start, stop), ...)
    sliced_names: tuple
    shared_names: tuple
    writes: tuple
    const_names: tuple
    outputs: tuple = ()            # ((logical, (array, ...)), ...)

    @property
    def n_slabs(self) -> int:
        return len(self.slabs)

    @property
    def output_names(self) -> tuple:
        """Logical output names in declaration order."""
        return tuple(logical for logical, _ in self.outputs)


def freeze_write_plan(slabs, n: int, *, sliced: dict, shared: dict,
                      writes, consts: dict, outputs=None) -> WritePlan:
    """Validate one dispatch and freeze it into a :class:`WritePlan`."""
    validate_write_plan(slabs, n, sliced=sliced, shared=shared,
                        writes=writes, consts=consts, outputs=outputs)
    frozen_outputs = (validate_outputs_schema(outputs, writes)
                      if outputs is not None else ())
    return WritePlan(
        n=n,
        slabs=tuple((int(a), int(b)) for a, b in slabs),
        sliced_names=tuple(sorted(sliced)),
        shared_names=tuple(sorted(shared)),
        writes=tuple(writes),
        const_names=tuple(sorted(consts)),
        outputs=frozen_outputs,
    )
