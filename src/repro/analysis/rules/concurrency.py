"""R006/R007/R009 — concurrency discipline for the serving stack.

The gateway/daemon/ring layers rest on three conventions no runtime
check enforces: the asyncio event loop never blocks (R006), every
seqlock ring has exactly one producer context (R007), and state shared
across thread contexts is mediated by a lock, queue, or ring (R009).
All three rules run on the :mod:`repro.analysis.context` classifier:
functions are tagged ``event-loop`` / ``thread:<root>`` /
``worker:<root>`` from their spawn sites and direct call edges, and
only *classified* contexts ever trip a finding — library code callable
from anywhere stays out of scope rather than producing noise.
"""

from __future__ import annotations

import ast
from pathlib import Path

from ..context import EVENT_LOOP, call_name, context_map, receiver_base
from ..rule import Rule, register

#: Receiver-name fragments that mark a ring/descriptor handle.
_RINGISH = ("ring", "submit", "ack", "door")

#: Attr-name fragments of self-attributes that *are* synchronizers —
#: mutating them is the mediation, not a race.
_SYNCISH = ("lock", "mutex", "queue", "ring", "event", "cond", "sem",
            "door", "future")

#: Method calls that mutate their receiver in place.
_MUTATORS = {"append", "appendleft", "add", "insert", "extend", "update",
             "pop", "popleft", "popitem", "clear", "remove", "discard",
             "setdefault", "put", "put_nowait", "move_to_end", "push"}

#: Methods excluded from R009: construction happens-before publication,
#: and finalizers run after every other context has quiesced.
_R009_SKIP_FNS = {"__init__", "__new__", "__post_init__", "__del__"}


def _in_concurrency_scope(sf, ctx) -> bool:
    """R009 is scoped to the layers the issue names: ``repro.serve``
    and ``repro.parallel`` (fixtures lint with ``assume_hot``)."""
    if ctx.assume_hot:
        return True
    parts = Path(sf.rel).parts
    return "serve" in parts or "parallel" in parts


def _receiver_names(func) -> list:
    """Every identifier of a method call's receiver chain, lowered:
    ``["plan", "staging"]`` for ``staging.plan.run``, where
    :func:`receiver_base` keeps only one of them."""
    names = []
    cur = func.value if isinstance(func, ast.Attribute) else None
    while isinstance(cur, (ast.Attribute, ast.Subscript)):
        if isinstance(cur, ast.Attribute):
            names.append(cur.attr.lower())
        cur = cur.value
    if isinstance(cur, ast.Name):
        names.append(cur.id.lower())
    return names


def _blocking_reason(sf, node) -> str | None:
    """Why this Call would block the event loop, or None."""
    name = call_name(node.func)
    base = receiver_base(node.func)
    lbase = (base or "").lower()
    if base == "time" and name == "sleep":
        return "time.sleep() parks the whole loop"
    if base is None:
        if name == "sleep" and _imports_time_sleep(sf):
            return "time.sleep() parks the whole loop"
        if name == "open":
            return "synchronous file open blocks on disk"
        if name and name.lstrip("_").startswith("sock_call"):
            return "synchronous socket round-trip"
        return None
    if name in ("map_shm", "compile_shm", "compile_lanes",
                "dispatch", "pin", "unpin", "ping", "request_stop"):
        return (f"{name}() is a synchronous dispatch that stalls the "
                f"loop for a full batch service time")
    if name in ("accept", "recv", "recv_into", "recvfrom", "sendall",
                "connect", "makefile") and ("sock" in lbase
                                            or lbase == "conn"):
        return "blocking socket I/O"
    if name == "run" and any("plan" in n
                             for n in _receiver_names(node.func)):
        return "plan.run() executes a whole batch synchronously"
    if (name in ("push", "pop")
            and any(s in lbase for s in _RINGISH)):
        return (f"ring {name}() spins/sleeps until the peer drains — "
                f"unbounded stall")
    if name == "shutdown" and ("pool" in lbase or "executor" in lbase):
        if not any(kw.arg == "wait"
                   and isinstance(kw.value, ast.Constant)
                   and kw.value.value is False
                   for kw in node.keywords):
            return "pool shutdown joins worker threads"
        return None
    if (name in ("close", "stop")
            and ("executor" in lbase or "daemon" in lbase)):
        return (f"{base}.{name}() tears down pins/processes over "
                f"sockets — milliseconds of loop stall")
    return None


def _imports_time_sleep(sf) -> bool:
    return any(isinstance(n, ast.ImportFrom) and n.module == "time"
               and any(a.name == "sleep" for a in n.names)
               for n in ast.walk(sf.tree))


@register
class BlockingInAsyncContext(Rule):
    code = "R006"
    name = "no blocking calls in event-loop context"
    rationale = (
        "Everything awaited anywhere shares one event loop; a single "
        "synchronous sleep, socket round-trip, file open, or slab "
        "dispatch inside an async def (or a sync callback the loop "
        "runs) freezes intake, deadline timers, and every other "
        "in-flight request for its full duration. The gateway keeps "
        "its latency budget honest by pushing blocking work — plan "
        "compiles, pool teardown, daemon unpins — off the loop via "
        "asyncio.to_thread or run_in_executor; this rule keeps it "
        "that way. One exception is sanctioned and suppressed at its "
        "site: the gateway runs a warm plan on the loop "
        "(PricingGateway._run_plan), because a thread hop cost as "
        "much as the run and the longest warm run at max_batch is a "
        "few milliseconds. "
        "Event-loop context is computed by the classifier: async defs "
        "plus sync functions reached from loop callbacks or direct "
        "calls."
    )
    example_bad = (
        "async def submit(self, request):\n"
        "    result = self._executor.dispatch(plan)   # blocks the loop\n"
        "    time.sleep(0.01)                         # so does this\n"
        "    return result"
    )
    example_fix = (
        "async def submit(self, request):\n"
        "    loop = asyncio.get_running_loop()\n"
        "    result = await loop.run_in_executor(\n"
        "        self._pool, self._executor.dispatch, plan)\n"
        "    await asyncio.sleep(0.01)\n"
        "    return result"
    )

    def check(self, sf, ctx):
        cm = context_map(sf)
        for node in ast.walk(sf.tree):
            if not isinstance(node, ast.Call):
                continue
            if EVENT_LOOP not in cm.contexts(node):
                continue
            reason = _blocking_reason(sf, node)
            if reason is None:
                continue
            fn = sf.enclosing_function(node)
            yield self.finding(
                sf, node,
                f"blocking call in event-loop context "
                f"({fn.name if fn else '<module>'}): {reason}; move it "
                f"behind run_in_executor or use the async equivalent")


def _locally_bound(fndef, name: str) -> bool:
    """True when ``name`` is created inside ``fndef`` (param, assign,
    with/for target) — i.e. per-invocation, not shared state."""
    args = fndef.args
    for a in (args.args + args.posonlyargs + args.kwonlyargs
              + ([args.vararg] if args.vararg else [])
              + ([args.kwarg] if args.kwarg else [])):
        if a.arg == name:
            return True
    for node in ast.walk(fndef):
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign, ast.For)):
            targets = [node.target]
        elif isinstance(node, ast.withitem) and node.optional_vars:
            targets = [node.optional_vars]
        for t in targets:
            for sub in ast.walk(t):
                if isinstance(sub, ast.Name) and sub.id == name:
                    return True
    return False


@register
class SpscProducerDiscipline(Rule):
    code = "R007"
    name = "single-producer discipline on seqlock rings"
    rationale = (
        "The shm rings are SPSC by construction: push publishes a slot "
        "with a plain seq-word store, so two producers on one ring "
        "tear descriptors with no error raised — results silently "
        "cross-wire between calls. Every ring handle must therefore "
        "be pushed from exactly one thread context. The rule groups "
        "push sites per ring handle and flags any handle reachable "
        "from two classified contexts, and any shared (self-stored or "
        "global) handle pushed from a context spawned N times."
    )
    example_bad = (
        "async def flush(self):\n"
        "    self._submit_ring.push(seq, plan, slab, arg)  # loop pushes\n"
        "def _dispatch_loop(self):   # run_in_executor thread\n"
        "    self._submit_ring.push(seq, plan, slab, arg)  # ...and thread"
    )
    example_fix = (
        "async def flush(self):\n"
        "    # the loop only enqueues; the single dispatch thread owns\n"
        "    # the ring\n"
        "    await self._dispatch_queue.put(batch)\n"
        "def _dispatch_loop(self):\n"
        "    self._submit_ring.push(seq, plan, slab, arg)"
    )

    def check(self, sf, ctx):
        cm = context_map(sf)
        sites: dict = {}           # handle base -> [(node, contexts)]
        for node in ast.walk(sf.tree):
            if not isinstance(node, ast.Call):
                continue
            name = call_name(node.func)
            if name not in ("push", "try_push"):
                continue
            base = receiver_base(node.func)
            if (base is None or base in ("self", "cls")
                    or not any(s in base.lower() for s in _RINGISH)):
                continue
            sites.setdefault(base, []).append((node, cm.contexts(node)))
        for base, group in sites.items():
            tags = sorted({t for _, tg in group for t in tg})
            if len(tags) >= 2:
                node = next(n for n, tg in group if tg)
                yield self.finding(
                    sf, node,
                    f"ring handle {base!r} is pushed from multiple "
                    f"thread contexts ({', '.join(tags)}); SPSC rings "
                    f"admit exactly one producer — route all pushes "
                    f"through one owner context")
                continue
            for node, tg in group:
                multi = sorted(t for t in tg if cm.is_multi(t))
                # A handle bound in any enclosing scope is per-spawn
                # (each worker attaches its own ring); only self-
                # stored or global handles are shared across spawns.
                bound = False
                fn = sf.enclosing_function(node)
                while fn is not None and not bound:
                    bound = _locally_bound(fn, base)
                    fn = sf.enclosing_function(fn)
                if multi and not bound:
                    yield self.finding(
                        sf, node,
                        f"ring handle {base!r} is shared state pushed "
                        f"from {multi[0]!r}, which is spawned more "
                        f"than once — N concurrent producers on one "
                        f"ring; give each spawn its own ring or elect "
                        f"a single owner")


def _self_attr_root(expr) -> str | None:
    """First attribute of a ``self``-rooted chain: ``_cache`` for
    ``self._cache[k]``, ``self._cache.put``; None otherwise."""
    chain = []
    cur = expr
    while isinstance(cur, (ast.Attribute, ast.Subscript)):
        if isinstance(cur, ast.Attribute):
            chain.append(cur.attr)
        cur = cur.value
    if isinstance(cur, ast.Name) and cur.id == "self" and chain:
        return chain[-1]
    return None


def _lock_guarded(sf, node) -> bool:
    for anc in sf.ancestors(node):
        if not isinstance(anc, ast.With):
            continue
        for item in anc.items:
            expr = item.context_expr
            if isinstance(expr, ast.Call):
                expr = expr.func
            name = (expr.attr if isinstance(expr, ast.Attribute)
                    else expr.id if isinstance(expr, ast.Name) else "")
            if any(s in name.lower() for s in ("lock", "mutex", "cond")):
                return True
    return False


@register
class CrossThreadSharedState(Rule):
    code = "R009"
    name = "cross-thread mutation needs a lock, queue, or ring"
    rationale = (
        "The serving stack runs three context kinds at once — the "
        "event loop, helper threads (compiles, teardown), daemon "
        "workers — and any "
        "attribute mutated from two of them without a mediating lock, "
        "queue, or ring is a data race waiting for an unlucky "
        "interleave (LRU caches corrupt, counters drop, dicts resize "
        "mid-read). Scoped to repro.serve/repro.parallel; __init__ "
        "mutations (happens-before publication) and synchronizer "
        "attributes are exempt, and only classified contexts count."
    )
    example_bad = (
        "async def _get_staging(self, key):\n"
        "    self._cache.pop(key)          # event loop mutates...\n"
        "def _run_plan(self, batch):       # run_in_executor thread\n"
        "    self._cache.put(key, plan)    # ...and so does the thread"
    )
    example_fix = (
        "async def _get_staging(self, key):\n"
        "    with self._cache_lock:\n"
        "        self._cache.pop(key)\n"
        "def _run_plan(self, batch):\n"
        "    with self._cache_lock:\n"
        "        self._cache.put(key, plan)"
    )

    def check(self, sf, ctx):
        if not _in_concurrency_scope(sf, ctx):
            return
        cm = context_map(sf)
        for cls in ast.walk(sf.tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            yield from self._check_class(sf, cm, cls)

    def _check_class(self, sf, cm, cls):
        sites: dict = {}           # attr -> [(node, contexts)]
        for node in ast.walk(cls):
            attr = self._mutated_attr(node)
            if attr is None or any(s in attr.lower() for s in _SYNCISH):
                continue
            fn = sf.enclosing_function(node)
            if fn is None or fn.name in _R009_SKIP_FNS:
                continue
            tags = cm.contexts(node)
            if not tags or _lock_guarded(sf, node):
                continue
            sites.setdefault(attr, []).append((node, tags))
        for attr, group in sorted(sites.items()):
            tags = sorted({t for _, tg in group for t in tg})
            if len(tags) < 2:
                continue
            first_tag = sorted(group[0][1])[0]
            node = next((n for n, tg in group
                         if first_tag not in tg), group[0][0])
            yield self.finding(
                sf, node,
                f"self.{attr} is mutated from multiple thread contexts "
                f"({', '.join(tags)}) with no lock, queue, or ring "
                f"mediating; guard every mutation (and the reads that "
                f"pair with them) with one lock")

    @staticmethod
    def _mutated_attr(node) -> str | None:
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for t in targets:
                attr = _self_attr_root(t)
                if attr is not None:
                    return attr
            return None
        if isinstance(node, ast.Call):
            name = call_name(node.func)
            if (name in _MUTATORS
                    and isinstance(node.func, ast.Attribute)):
                return _self_attr_root(node.func.value)
        return None
