"""Per-rule fixture tests: every rule fires on its bad snippet and
stays quiet on the sanctioned pattern."""

import pytest

from repro.analysis import all_rules, lint_source

from .fixtures import FIXTURES

RULES = {r.code: r for r in all_rules()}


def run_rule(code, text, **kw):
    return lint_source(text, rules=[RULES[code]], **kw)


class TestFixtures:
    @pytest.mark.parametrize("code", sorted(FIXTURES))
    def test_bad_fixture_fires(self, code):
        fx = FIXTURES[code]
        findings = run_rule(code, fx["bad"])
        assert len(findings) >= fx["bad_count"], \
            [f.render() for f in findings]
        assert {f.code for f in findings} == {code}

    @pytest.mark.parametrize("code", sorted(FIXTURES))
    def test_good_fixture_clean(self, code):
        fx = FIXTURES[code]
        assert run_rule(code, fx["good"]) == []

    @pytest.mark.parametrize("code", sorted(FIXTURES))
    def test_findings_carry_anchors(self, code):
        for f in run_rule(code, FIXTURES[code]["bad"]):
            assert f.line >= 1 and f.snippet
            assert f.fingerprint and len(f.fingerprint) == 16


class TestR001Scope:
    def test_cold_files_exempt(self):
        # Tier scoping: the same code outside a hot-tier file is fine.
        assert run_rule("R001", FIXTURES["R001"]["bad"],
                        assume_hot=False) == []

    def test_allocation_outside_loop_allowed(self):
        text = ("import numpy as np\n"
                "def kernel(x):\n"
                "    scratch = np.zeros(16)\n"
                "    return scratch\n")
        assert run_rule("R001", text) == []

    def test_out_capable_kernel_in_loop(self):
        text = ("def run(schedule, z, out):\n"
                "    for i in range(4):\n"
                "        out[i] = build_vectorized(schedule, z)\n")
        findings = run_rule("R001", text)
        assert len(findings) == 1
        assert "build_vectorized" in findings[0].message

    @pytest.mark.parametrize("call", ["np.exp(x)", "ndtr(x)"])
    def test_transcendental_outside_loop_needs_out(self, call):
        text = ("import numpy as np\n"
                "def kernel(x):\n"
                f"    y = {call}\n"
                "    return y\n")
        findings = run_rule("R001", text)
        assert len(findings) == 1
        assert call.split("(")[0] in findings[0].message

    def test_transcendental_with_out_clean(self):
        text = ("def kernel(x):\n"
                "    ndtr(x, out=x)\n"
                "    return x\n")
        assert run_rule("R001", text) == []


class TestR001Arena:
    """The plan layer's arena is the sanctioned allocator in hot tiers."""

    def test_arena_reserve_in_loop_allowed(self):
        text = ("def run(arena, slabs):\n"
                "    for i, (a, b) in enumerate(slabs):\n"
                "        buf = arena.reserve(f'scratch{i}', b - a)\n")
        assert run_rule("R001", text) == []

    def test_named_arena_receivers_allowed(self):
        text = ("def run(slab_arena, x):\n"
                "    for i in range(4):\n"
                "        slab_arena.reserve_like(f's{i}', x)\n")
        assert run_rule("R001", text) == []

    def test_allocator_nested_in_arena_args_allowed(self):
        text = ("import numpy as np\n"
                "def run(arena):\n"
                "    for i in range(4):\n"
                "        arena.reserve_like(f's{i}', np.zeros(16))\n")
        assert run_rule("R001", text) == []

    def test_non_arena_receiver_still_fires(self):
        text = ("import numpy as np\n"
                "def run(pool):\n"
                "    for i in range(4):\n"
                "        t = np.zeros(16)\n")
        assert len(run_rule("R001", text)) == 1

    def test_setup_phase_functions_exempt(self):
        # Planners (workspace builders are ``plan_*`` too) / plan
        # compilers / constructors run once per plan; allocating there
        # IS the hoisting.
        text = ("import numpy as np\n"
                "def compile_solve(options):\n"
                "    for o in options:\n"
                "        u = np.zeros(64)\n"
                "def plan_contract(opt):\n"
                "    for n in range(4):\n"
                "        s = np.exp(np.arange(8.0))\n"
                "class Batch:\n"
                "    def __init__(self, fields, n):\n"
                "        for f in fields:\n"
                "            self.a = np.zeros(n)\n")
        assert run_rule("R001", text) == []

    def test_hot_runner_next_to_setup_still_fires(self):
        text = ("import numpy as np\n"
                "def compile_solve(n):\n"
                "    buf = np.zeros(n)\n"
                "def _sweep(u, out):\n"
                "    for i in range(4):\n"
                "        t = np.exp(u)\n")
        findings = run_rule("R001", text)
        assert len(findings) == 1
        assert findings[0].symbol == "_sweep"


class TestR002Scope:
    def test_consts_get_form_allowed(self):
        text = ("from repro.rng import MT19937\n"
                "def _slab(arrays, consts, a, b, slab):\n"
                "    gen = MT19937(consts.get('seed', 0))\n"
                "def run(ex, out, n):\n"
                "    ex.map_shm(_slab, n, sliced={'out': out},\n"
                "               writes=('out',), consts={'seed': 1})\n")
        assert run_rule("R002", text) == []

    def test_seeding_outside_slab_body_allowed(self):
        text = ("from repro.rng import MT19937\n"
                "def make(seed):\n"
                "    return MT19937(seed)\n")
        assert run_rule("R002", text) == []

    def test_jump_ahead_inside_a_slab_body_flagged(self):
        # The warm-path bug of ISSUE 19: an O(a) sequential skip on
        # every run of the slab.  The same skip at compile time is fine.
        text = ("from repro.rng import MT19937\n"
                "def _slab(arrays, consts, a, b, slab):\n"
                "    gen = MT19937(consts['seed']).jumped_copy(2 * a)\n"
                "    arrays['out'][:] = gen.uniform53(b - a)\n"
                "def compile_it(ex, out, n, seed):\n"
                "    start = MT19937(seed).jumped_copy(2 * n)\n"
                "    return ex.compile_shm(_slab, n, sliced={'out': out},\n"
                "                          writes=('out',),\n"
                "                          consts={'seed': seed})\n")
        findings = run_rule("R002", text)
        assert len(findings) == 1
        assert findings[0].symbol == "_slab"
        assert "jumped_copy" in findings[0].message


class TestR003Scope:
    def test_imported_body_allowed(self):
        text = ("from repro.kernels.black_scholes.parallel import "
                "_price_slab_task\n"
                "def run(ex, out, n):\n"
                "    ex.map_shm(_price_slab_task, n, sliced={'out': out},\n"
                "               writes=('out',))\n")
        assert run_rule("R003", text) == []

    def test_module_attribute_body_allowed(self):
        text = ("import tasks\n"
                "def run(ex, out, n):\n"
                "    ex.map_shm(tasks.body, n, sliced={'out': out},\n"
                "               writes=('out',))\n")
        assert run_rule("R003", text) == []

    def test_nested_def_names_enclosing_function(self):
        findings = run_rule("R003", FIXTURES["R003"]["bad"])
        nested = [f for f in findings if "inside run" in f.message]
        assert nested, [f.message for f in findings]


class TestR005Scope:
    def test_writes_consts_clash(self):
        text = ("def _slab(arrays, consts, a, b, slab):\n"
                "    arrays['out'][:] = 1.0\n"
                "def run(ex, out, n):\n"
                "    ex.map_shm(_slab, n, sliced={'out': out},\n"
                "               writes=('out',), consts={'out': 3})\n")
        findings = run_rule("R005", text)
        assert any("both writes= and consts=" in f.message
                   for f in findings)

    def test_shared_write_race(self):
        text = ("def _slab(arrays, consts, a, b, slab):\n"
                "    arrays['acc'][:] = 1.0\n"
                "def run(ex, acc, n):\n"
                "    ex.map_shm(_slab, n, shared={'acc': acc},\n"
                "               writes=('acc',))\n")
        findings = run_rule("R005", text)
        assert any("race" in f.message for f in findings)

    def test_unknown_write_name(self):
        text = ("def _slab(arrays, consts, a, b, slab):\n"
                "    pass\n"
                "def run(ex, out, n):\n"
                "    ex.map_shm(_slab, n, sliced={'out': out},\n"
                "               writes=('out', 'ghost'))\n")
        findings = run_rule("R005", text)
        assert any("'ghost'" in f.message for f in findings)

    def test_one_hop_helper_write_detected(self):
        text = ("import numpy as np\n"
                "def _fill(z, out):\n"
                "    np.exp(z, out=out)\n"
                "def _slab(arrays, consts, a, b, slab):\n"
                "    _fill(arrays['z'], arrays['out'])\n"
                "def run(ex, z, out, n):\n"
                "    ex.map_shm(_slab, n, sliced={'z': z, 'out': out},\n"
                "               writes=())\n")
        findings = run_rule("R005", text)
        assert any("'out'" in f.message and "silently lost" in f.message
                   for f in findings)

    def test_bound_name_augassign_detected(self):
        text = ("def _slab(arrays, consts, a, b, slab):\n"
                "    call = arrays['call']\n"
                "    call -= 1.0\n"
                "def run(ex, call, n):\n"
                "    ex.map_shm(_slab, n, sliced={'call': call},\n"
                "               writes=())\n")
        findings = run_rule("R005", text)
        assert any("'call'" in f.message for f in findings)

    def test_dynamic_site_skipped(self):
        # Non-literal declarations are the runtime checker's job.
        text = ("def _slab(arrays, consts, a, b, slab):\n"
                "    arrays['out'][:] = 1.0\n"
                "def run(ex, arrs, names, n):\n"
                "    ex.map_shm(_slab, n, sliced=arrs, writes=names)\n")
        assert run_rule("R005", text) == []


class TestSlabSiteCoverage:
    """R002/R003/R005 analyse the declarations that serve — the
    ``compile_shm``/``compile_lanes`` sites — not only one-shots."""

    def test_every_kernel_dispatch_site_is_seen(self):
        import ast
        from collections import Counter
        from pathlib import Path

        import repro.kernels
        from repro.analysis.slabs import slab_sites

        methods = Counter(
            site.method
            for path in Path(repro.kernels.__file__).parent.rglob("*.py")
            for site in slab_sites(ast.parse(path.read_text())))
        # 14 slab tiers declare 12 dispatches, one each whatever the
        # address space (the lattice greeks tiers reuse their price
        # tier's); the lattice and the four Black-Scholes slab tiers are
        # lanes; no kernel dispatches a one-shot by hand.
        assert methods == {"compile_shm": 6, "compile_lanes": 6}

    @pytest.mark.parametrize("method", ["compile_shm", "compile_lanes"])
    def test_undeclared_write_at_a_compile_site(self, method):
        text = FIXTURES["R005"]["bad"].replace("map_shm", method)
        findings = run_rule("R005", text)
        assert any("'err'" in f.message and method in f.message
                   for f in findings), [f.message for f in findings]

    @pytest.mark.parametrize("method", ["compile_shm", "compile_lanes"])
    def test_closure_body_at_a_compile_site(self, method):
        text = FIXTURES["R003"]["bad"].replace("map_shm", method)
        assert len(run_rule("R003", text)) == 2

    def test_operand_form_sites_stay_visible(self):
        # r/sig are spread into sliced= (columns) or consts= (floats),
        # which makes those two dicts dynamic; the site, its body and
        # its writes=/outputs= must stay in the analysis' sight.
        import ast
        from pathlib import Path

        import repro.kernels.black_scholes as bs
        from repro.analysis.slabs import slab_sites

        root = Path(bs.__file__).parent
        seen = {}
        for name, body in (("parallel", "_price_slab_task"),
                           ("greeks", "_greeks_slab_task"),
                           ("scenario", "_scenario_slab_task")):
            tree = ast.parse((root / f"{name}.py").read_text())
            (site,) = slab_sites(tree)
            assert site.method == "compile_lanes"
            assert site.fn_name == body
            kws = {k.arg for k in site.call.keywords}
            assert {"sliced", "writes", "consts"} <= kws
            seen[name] = (site, kws)
        assert seen["parallel"][0].writes == ("call", "put")
        assert "outputs" in seen["greeks"][1]
        assert "outputs" in seen["scenario"][1]

    def test_undeclared_cell_write_at_a_scenario_shaped_site(self):
        text = ("import numpy as np\n"
                "def _cells(S, g00, g01):\n"
                "    np.multiply(S, 0.9, out=g00)\n"
                "    np.multiply(S, 1.1, out=g01)\n"
                "def _slab(arrays, consts, a, b, slab):\n"
                "    _cells(arrays['S'], arrays['g00'], arrays['g01'])\n"
                "def compile_grid(ex, S, views, columns, params, n):\n"
                "    return ex.compile_shm(\n"
                "        _slab, n,\n"
                "        sliced={'S': S, **views, **columns},\n"
                "        writes=('g00',),\n"
                "        outputs={'grid': ('g00',)},\n"
                "        consts={'lib': None, **params})\n")
        findings = run_rule("R005", text)
        assert [f for f in findings if "'g01'" in f.message
                and "compile_shm" in f.message], \
            [f.message for f in findings]
        declared = text.replace("('g00',)", "('g00', 'g01')")
        assert run_rule("R005", declared) == []


class TestR005Outputs:
    """Multi-output schema checks: outputs= must agree with writes=."""

    def test_declared_but_unwritten_output(self):
        text = ("def _slab(arrays, consts, a, b, slab):\n"
                "    arrays['price'][:] = 1.0\n"
                "def run(ex, price, n):\n"
                "    ex.map_shm(_slab, n, sliced={'price': price},\n"
                "               writes=('price',),\n"
                "               outputs={'price': ('price',),\n"
                "                        'delta': ('delta',)})\n")
        findings = run_rule("R005", text)
        assert any("declared-but-unwritten" in f.message
                   and "'delta'" in f.message for f in findings), \
            [f.message for f in findings]

    def test_written_but_undeclared_output(self):
        text = ("def _slab(arrays, consts, a, b, slab):\n"
                "    arrays['price'][:] = 1.0\n"
                "    arrays['vega'][:] = 2.0\n"
                "def run(ex, price, vega, n):\n"
                "    ex.map_shm(_slab, n,\n"
                "               sliced={'price': price, 'vega': vega},\n"
                "               writes=('price', 'vega'),\n"
                "               outputs={'price': ('price',)})\n")
        findings = run_rule("R005", text)
        assert any("written-but-undeclared" in f.message
                   and "'vega'" in f.message for f in findings), \
            [f.message for f in findings]

    def test_consistent_multi_output_site_clean(self):
        # One logical output may span several arrays (price = [calls|puts])
        # and a bare string value means a single backing array.
        text = ("def _slab(arrays, consts, a, b, slab):\n"
                "    arrays['call'][:] = 1.0\n"
                "    arrays['put'][:] = 2.0\n"
                "    arrays['delta'][:] = 3.0\n"
                "def run(ex, call, put, delta, n):\n"
                "    ex.map_shm(_slab, n,\n"
                "               sliced={'call': call, 'put': put,\n"
                "                       'delta': delta},\n"
                "               writes=('call', 'put', 'delta'),\n"
                "               outputs={'price': ('call', 'put'),\n"
                "                        'delta': 'delta'})\n")
        assert run_rule("R005", text) == []

    def test_dynamic_schema_skipped(self):
        # A named schema constant is dynamic at this site; the runtime
        # validator (validate_outputs_schema) owns it.
        text = ("SCHEMA = {'price': ('price',)}\n"
                "def _slab(arrays, consts, a, b, slab):\n"
                "    arrays['price'][:] = 1.0\n"
                "def run(ex, price, n):\n"
                "    ex.map_shm(_slab, n, sliced={'price': price},\n"
                "               writes=('price',), outputs=SCHEMA)\n")
        assert run_rule("R005", text) == []

    def test_single_output_legacy_site_clean(self):
        # No outputs= at all: the single-price contract, not a finding.
        findings = run_rule("R005", FIXTURES["R005"]["good"])
        assert findings == []


class TestR006Scope:
    def test_arbitrary_caller_exempt(self):
        # Untagged sync code may block — it's the caller's problem.
        text = ("import time\n"
                "def helper():\n"
                "    time.sleep(0.01)\n")
        assert run_rule("R006", text) == []

    def test_direct_call_edge_propagates(self):
        text = ("import time\n"
                "def _drain():\n"
                "    time.sleep(0.01)\n"
                "async def flush():\n"
                "    _drain()\n")
        findings = run_rule("R006", text)
        assert len(findings) == 1
        assert "_drain" in findings[0].message

    def test_loop_callback_classified(self):
        text = ("import time\n"
                "def _tick():\n"
                "    time.sleep(0.5)\n"
                "def arm(loop):\n"
                "    loop.call_soon(_tick)\n")
        assert len(run_rule("R006", text)) == 1

    def test_value_passing_creates_no_edge(self):
        # A body handed to run_in_executor runs on a pool thread, not
        # the loop, even though an async def registers it.
        text = ("import time\n"
                "def _work():\n"
                "    time.sleep(0.5)\n"
                "async def submit(loop, pool):\n"
                "    await loop.run_in_executor(pool, _work)\n")
        assert run_rule("R006", text) == []

    def test_pool_shutdown_wait_false_allowed(self):
        text = ("async def close(pool):\n"
                "    pool.shutdown(wait=False)\n")
        assert run_rule("R006", text) == []

    def test_ring_push_in_async_fires(self):
        text = ("async def flush(submit_ring, seq, plan, slab):\n"
                "    submit_ring.push(seq, plan, slab, 0)\n")
        findings = run_rule("R006", text)
        assert len(findings) == 1
        assert "ring" in findings[0].message


class TestR007Scope:
    def test_single_owner_context_clean(self):
        text = ("import threading\n"
                "def _dispatch_loop(submit_ring):\n"
                "    submit_ring.push(1, 2, 3, 0)\n"
                "def start():\n"
                "    threading.Thread(target=_dispatch_loop).start()\n")
        assert run_rule("R007", text) == []

    def test_unclassified_pushes_ignored(self):
        text = ("def helper(submit_ring):\n"
                "    submit_ring.push(1, 2, 3, 0)\n")
        assert run_rule("R007", text) == []

    def test_non_ringish_receiver_ignored(self):
        text = ("import threading\n"
                "async def a(stash):\n"
                "    stash.push(1)\n"
                "def b(stash):\n"
                "    stash.push(2)\n"
                "def start():\n"
                "    threading.Thread(target=b).start()\n")
        assert run_rule("R007", text) == []

    def test_per_spawn_attach_allowed(self):
        # The good fixture's _worker_main: a multi-spawned context may
        # push a ring it attached itself (one ring per spawn).
        assert run_rule("R007", FIXTURES["R007"]["good"]) == []


class TestR008Scope:
    def test_escape_via_return_transfers_custody(self):
        text = ("def make(name):\n"
                "    ring = Ring.attach(name)\n"
                "    return ring\n")
        assert run_rule("R008", text) == []

    def test_closure_capture_transfers_custody(self):
        # compile_shm handles captured by a returned runner belong to
        # the plan layer — the kernel planners' idiom.
        text = ("def planner(ex, schedule):\n"
                "    dispatch = ex.compile_shm(schedule)\n"
                "    def run(z, out):\n"
                "        return dispatch.run(z, out)\n"
                "    return run\n")
        assert run_rule("R008", text) == []

    def test_self_store_without_teardown_fires(self):
        text = ("class Holder:\n"
                "    def open(self, name):\n"
                "        self._ring = Ring.attach(name)\n")
        findings = run_rule("R008", text)
        assert len(findings) == 1
        assert "no teardown" in findings[0].message

    def test_self_store_with_teardown_clean(self):
        text = ("class Holder:\n"
                "    def open(self, name):\n"
                "        self._ring = Ring.attach(name)\n"
                "    def close(self):\n"
                "        self._ring.close()\n")
        assert run_rule("R008", text) == []

    def test_release_via_argument_pairs(self):
        # daemon.unpin(plan_id) releases the id daemon.pin returned.
        text = ("def run(daemon, schedule):\n"
                "    plan_id = daemon.pin(schedule)\n"
                "    try:\n"
                "        daemon.dispatch(plan_id)\n"
                "    finally:\n"
                "        daemon.unpin(plan_id)\n")
        assert run_rule("R008", text) == []

    def test_fall_through_release_fires(self):
        text = ("def run(daemon, schedule):\n"
                "    plan_id = daemon.pin(schedule)\n"
                "    daemon.unpin(plan_id)\n")
        findings = run_rule("R008", text)
        assert len(findings) == 1
        assert "fall-through" in findings[0].message


class TestR009Scope:
    def test_outside_serve_parallel_unscoped(self):
        findings = run_rule("R009", FIXTURES["R009"]["bad"],
                            assume_hot=False)
        assert findings == []

    def test_single_context_clean(self):
        text = ("class GW:\n"
                "    async def submit(self, item):\n"
                "        self._pending = item\n"
                "    async def flush(self):\n"
                "        self._pending = None\n")
        assert run_rule("R009", text) == []

    def test_synchronizer_attrs_exempt(self):
        # Mutating a queue from two contexts IS the mediation.
        text = ("class GW:\n"
                "    async def submit(self, item):\n"
                "        self._queue.put(item)\n"
                "    def _drain(self):\n"
                "        self._queue.put(None)\n"
                "    def start(self, loop):\n"
                "        loop.run_in_executor(None, self._drain)\n")
        assert run_rule("R009", text) == []

    def test_init_mutations_exempt(self):
        # Construction happens-before publication: __init__ writes
        # never pair with post-publication mutations.
        text = ("class GW:\n"
                "    def __init__(self):\n"
                "        self._cache = {}\n"
                "    async def submit(self, k):\n"
                "        self._cache[k] = k\n"
                "    def start(self, loop):\n"
                "        loop.run_in_executor(None, self._drain)\n"
                "    def _drain(self):\n"
                "        pass\n")
        assert run_rule("R009", text) == []


class TestR010Scope:
    def test_modules_without_abi_skipped(self):
        assert run_rule("R010", "x = 1\n") == []

    def test_missing_manifest_fires(self):
        text = ("import struct\n"
                "ABI_VERSION = 1\n"
                "_PAYLOAD = struct.Struct(\"<QIIQ\")\n")
        findings = run_rule("R010", text)
        assert len(findings) == 1
        assert "no _ABI_MANIFEST" in findings[0].message

    def test_forgotten_bump_fires(self):
        text = FIXTURES["R010"]["good"].replace(
            "ABI_VERSION = 2", "ABI_VERSION = 3")
        findings = run_rule("R010", text)
        assert any("newest" in f.message for f in findings)

    def test_offset_sanity_checked(self):
        text = FIXTURES["R010"]["good"].replace(
            '"door_off": 32', '"door_off": 60')
        findings = run_rule("R010", text)
        assert any("ascending" in f.message for f in findings)

    def test_arg_doc_required_from_v2(self):
        text = FIXTURES["R010"]["good"].replace(
            '"arg": "output_set_id of the pinned plan (0 = legacy)"',
            '"arg": "whatever"')
        findings = run_rule("R010", text)
        assert any("output_set_id" in f.message for f in findings)
