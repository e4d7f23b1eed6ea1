"""Unit tests for the thread/async execution-context classifier."""

import ast

from repro.analysis.context import (EVENT_LOOP, ContextMap, call_name,
                                    context_map, receiver_base)
from repro.analysis.source import SourceFile


def build(text):
    sf = SourceFile("<test>", text)
    cm = ContextMap(sf)
    defs = {n.name: n for n in ast.walk(sf.tree)
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))}
    return cm, defs


class TestNames:
    def _recv(self, src):
        node = ast.parse(src).body[0].value
        return receiver_base(node.func)

    def test_call_name(self):
        assert call_name(ast.parse("f(x)").body[0].value.func) == "f"
        assert call_name(ast.parse("a.b.m(x)").body[0].value.func) == "m"
        assert call_name(ast.parse("fns[0](x)").body[0].value.func) is None

    def test_receiver_base(self):
        assert self._recv("self._pool.submit(f)") == "_pool"
        assert self._recv("time.sleep(1)") == "time"
        assert self._recv("self._submit[w].try_push(x)") == "_submit"
        assert self._recv("get_ring().push(x)") == "get_ring"
        assert self._recv("f(x)") is None


class TestSeeds:
    def test_async_def_is_event_loop(self):
        cm, d = build("async def flush():\n    pass\n")
        assert EVENT_LOOP in cm.tags(d["flush"])

    def test_untagged_is_arbitrary_caller(self):
        cm, d = build("def helper():\n    pass\n")
        assert cm.tags(d["helper"]) == frozenset()

    def test_thread_and_process_targets(self):
        cm, d = build(
            "import threading\n"
            "def a():\n    pass\n"
            "def b():\n    pass\n"
            "def start(ctx):\n"
            "    threading.Thread(target=a).start()\n"
            "    ctx.Process(target=b).start()\n")
        assert "thread:a" in cm.tags(d["a"])
        assert "worker:b" in cm.tags(d["b"])

    def test_run_in_executor_second_arg(self):
        cm, d = build(
            "def work():\n    pass\n"
            "async def submit(loop, pool):\n"
            "    await loop.run_in_executor(pool, work)\n")
        assert "thread:work" in cm.tags(d["work"])
        assert EVENT_LOOP not in cm.tags(d["work"])

    def test_to_thread_first_arg(self):
        cm, d = build(
            "import asyncio\n"
            "def work():\n    pass\n"
            "async def submit():\n"
            "    await asyncio.to_thread(work)\n")
        assert "thread:work" in cm.tags(d["work"])
        assert EVENT_LOOP not in cm.tags(d["work"])

    def test_submit_needs_poolish_receiver(self):
        cm, d = build(
            "def f():\n    pass\n"
            "def g():\n    pass\n"
            "def run(pool, ring):\n"
            "    pool.submit(f)\n"
            "    ring.submit(g)\n")
        assert "thread:f" in cm.tags(d["f"])
        assert cm.tags(d["g"]) == frozenset()

    def test_loop_callbacks_are_event_loop(self):
        cm, d = build(
            "def tick():\n    pass\n"
            "def later():\n    pass\n"
            "def arm(loop):\n"
            "    loop.call_soon(tick)\n"
            "    loop.call_later(0.5, later)\n")
        assert EVENT_LOOP in cm.tags(d["tick"])
        assert EVENT_LOOP in cm.tags(d["later"])

    def test_slab_body_is_worker(self):
        cm, d = build(
            "def _slab(arrays, consts, a, b, slab):\n    pass\n"
            "def run(ex, n):\n"
            "    ex.map_shm(_slab, n)\n")
        assert "worker:_slab" in cm.tags(d["_slab"])

    def test_partial_unwrapped(self):
        cm, d = build(
            "from functools import partial\n"
            "import threading\n"
            "def body(n):\n    pass\n"
            "def start():\n"
            "    threading.Thread(target=partial(body, 4)).start()\n")
        assert "thread:body" in cm.tags(d["body"])

    def test_self_method_resolution(self):
        cm, d = build(
            "class GW:\n"
            "    def _loop(self):\n"
            "        pass\n"
            "    def start(self, loop):\n"
            "        loop.run_in_executor(None, self._loop)\n")
        assert "thread:_loop" in cm.tags(d["_loop"])


class TestPropagation:
    def test_direct_call_edge_into_sync(self):
        cm, d = build(
            "def helper():\n    pass\n"
            "async def flush():\n"
            "    helper()\n")
        assert EVENT_LOOP in cm.tags(d["helper"])

    def test_nested_def_inherits(self):
        cm, d = build(
            "import threading\n"
            "def outer():\n"
            "    def inner():\n"
            "        pass\n"
            "    inner()\n"
            "def start():\n"
            "    threading.Thread(target=outer).start()\n")
        assert "thread:outer" in cm.tags(d["inner"])

    def test_value_pass_is_not_an_edge(self):
        cm, d = build(
            "def cb():\n    pass\n"
            "async def register(sink):\n"
            "    sink.store(cb)\n")
        assert cm.tags(d["cb"]) == frozenset()


class TestMultiplicity:
    def test_loop_spawn_is_multi(self):
        cm, d = build(
            "import threading\n"
            "def body():\n    pass\n"
            "def start(n):\n"
            "    for _ in range(n):\n"
            "        threading.Thread(target=body).start()\n")
        assert cm.is_multi("thread:body")

    def test_two_sites_are_multi(self):
        cm, d = build(
            "import threading\n"
            "def body():\n    pass\n"
            "def start():\n"
            "    threading.Thread(target=body).start()\n"
            "    threading.Thread(target=body).start()\n")
        assert cm.is_multi("thread:body")

    def test_single_spawn_is_not_multi(self):
        cm, d = build(
            "import threading\n"
            "def body():\n    pass\n"
            "def start():\n"
            "    threading.Thread(target=body).start()\n")
        assert not cm.is_multi("thread:body")


class TestQueries:
    def test_contexts_of_node_and_memoization(self):
        sf = SourceFile("<test>", ("async def flush(ring):\n"
                                   "    ring.push(1)\n"))
        cm = context_map(sf)
        assert context_map(sf) is cm            # memoized on the file
        call = next(n for n in ast.walk(sf.tree)
                    if isinstance(n, ast.Call))
        assert cm.contexts(call) == frozenset({EVENT_LOOP})
        assert cm.classified(call)

    def test_module_level_is_unclassified(self):
        sf = SourceFile("<test>", "print(1)\n")
        cm = context_map(sf)
        call = next(n for n in ast.walk(sf.tree)
                    if isinstance(n, ast.Call))
        assert cm.contexts(call) == frozenset()
