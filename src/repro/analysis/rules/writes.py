"""R005 — shared-memory write declarations match slab-body mutations.

The out-of-process backends only copy back arrays named in
``writes=``; a slab body that mutates an undeclared array works
perfectly on the serial and thread backends (views alias the caller's
memory) and silently loses its writes on the process and daemon
backends — the nastiest class of backend divergence.  Conversely, writing a
``shared=`` array races across slabs, and a name in both ``writes=``
and ``consts=`` diverges between staged array and pickled constant.

Multi-output sites add a second contract: a literal ``outputs=``
schema maps each logical result (price, delta, vega, …) to the write
arrays that carry it.  The schema and ``writes=`` must agree exactly —
an output backed by an array outside ``writes=`` is never filled
(declared-but-unwritten), and a ``writes=`` array no output references
is computed and then dropped from the named result slab
(written-but-undeclared).

The static analysis resolves each dispatch site's slab body
(``map_shm``, ``compile_shm``, ``compile_lanes``) in the same module
and traces which dispatched arrays it mutates (direct subscript
stores, in-place augmented assignment, ``out=`` targets, and one call
hop into same-module helpers — see
:func:`repro.analysis.slabs.written_arrays`).  The runtime complement
is :func:`repro.parallel.safety.validate_write_plan`, which the
executor runs at compile time, before any worker starts.
"""

from __future__ import annotations

from ..rule import Rule, register
from ..slabs import module_namespace, slab_sites, written_arrays


@register
class WriteDeclarations(Rule):
    code = "R005"
    name = "slab-body writes must be declared (and race-free)"
    rationale = (
        "Out of process (process and daemon backends) only arrays "
        "named in writes= are copied back from shared memory by "
        "CompiledDispatch.run; a mutation of an undeclared "
        "array is silently discarded — results differ between "
        "backends with no error. A write into a shared= array is a "
        "cross-slab race, and a writes= name that also appears in "
        "consts= makes the body read a pickled constant while the "
        "staged array changes. Declaring writes precisely is what "
        "makes the copy-once/slice-many shm contract sound."
    )
    example_bad = (
        "def _slab(arrays, consts, a, b, slab):\n"
        "    arrays['out'][:] = compute(arrays['x'])\n"
        "    arrays['err'][:] = residual(arrays['x'])\n"
        "executor.map_shm(_slab, n,\n"
        "                 sliced={'x': x, 'out': out, 'err': err},\n"
        "                 writes=('out',))        # 'err' lost on process"
    )
    example_fix = (
        "executor.map_shm(_slab, n,\n"
        "                 sliced={'x': x, 'out': out, 'err': err},\n"
        "                 writes=('out', 'err'))"
    )

    def check(self, sf, ctx):
        defs, _ = module_namespace(sf.tree)
        for site in slab_sites(sf.tree):
            fndef = defs.get(site.fn_name)
            writes = site.writes
            sliced = site.sliced
            shared = site.shared
            if writes is not None and site.consts is not None:
                for name in sorted(set(writes) & set(site.consts)):
                    yield self.finding(
                        sf, site.call,
                        f"{name!r} appears in both writes= and consts=; "
                        f"the slab body would mutate the staged array "
                        f"while reading a pickled constant of the same "
                        f"name")
            if (writes is not None and sliced is not None
                    and shared is not None):
                for name in writes:
                    if name in shared and name not in sliced:
                        yield self.finding(
                            sf, site.call,
                            f"shared array {name!r} is declared in "
                            f"writes=; every slab receives the whole "
                            f"array, so concurrent slabs race — "
                            f"dispatch written arrays through sliced=")
                    elif name not in sliced and name not in shared:
                        yield self.finding(
                            sf, site.call,
                            f"writes= names {name!r} which is neither "
                            f"sliced= nor shared= at this site")
            # Multi-output schema vs writes= — the static mirror of
            # repro.parallel.safety.validate_outputs_schema.  An empty
            # schema is a single-output legacy site; a None schema is
            # dynamic and the runtime validator owns it.
            if site.outputs and writes is not None:
                referenced = [a for names in site.outputs.values()
                              for a in names]
                backing = {a: logical
                           for logical, names in site.outputs.items()
                           for a in names}
                for name in sorted(set(referenced) - set(writes)):
                    yield self.finding(
                        sf, site.call,
                        f"outputs= backs {backing[name]!r} with array "
                        f"{name!r} which is not declared in writes=; "
                        f"the slab body never fills it "
                        f"(declared-but-unwritten output)")
                for name in sorted(set(writes) - set(referenced)):
                    yield self.finding(
                        sf, site.call,
                        f"writes= declares {name!r} but no outputs= "
                        f"entry references it; its results are written "
                        f"and then dropped from the named result slab "
                        f"(written-but-undeclared output)")
            if fndef is None or writes is None:
                continue            # dynamic site: runtime checker owns it
            written = written_arrays(fndef, defs)
            for name in sorted(set(written) - set(writes)):
                yield self.finding(
                    sf, written[name],
                    f"slab body {fndef.name} mutates dispatched array "
                    f"{name!r} but the {site.method} site does not "
                    f"declare it in writes=; the mutation is silently "
                    f"lost on the out-of-process backends")
