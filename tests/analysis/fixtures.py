"""Minimal good/bad source snippets, one pair per lint rule.

Each ``bad`` snippet must make its rule fire (at least ``bad_count``
times, and nothing but that rule when run alone); each ``good`` snippet
is the corresponding sanctioned pattern and must lint clean under the
same rule.  Tier-scoped rules are exercised with ``assume_hot``.
"""

R001_BAD = '''\
import numpy as np

def fused_kernel(x, out, lib):
    y = lib.exp(x)                       # vmath without out=
    for i in range(4):
        t = np.zeros(16)                 # allocator in the hot loop
        s = np.exp(x)                    # ufunc temporary per iteration
        out[i] = t[0] + s[0] + y[0]
'''

R001_GOOD = '''\
import numpy as np

def fused_kernel(x, out, lib):
    scratch = np.empty_like(x)           # hoisted, reused
    lib.exp(x, out=scratch)
    for i in range(4):
        np.exp(x, out=scratch)
        out[i] = scratch[0]
'''

R002_BAD = '''\
import numpy as np
from repro.rng import MT19937

def _slab(arrays, consts, a, b, slab):
    gen = MT19937(1234)                  # seed not from the plan
    gen = consts["gen"].jumped_copy(2 * a)   # O(a) skip on every run
    arrays["out"][:] = 0.0

def run(ex, out, n):
    np.random.seed(7)                    # global state
    z = np.random.rand(n)                # global state
    g = np.random.default_rng()          # unseeded
    ex.map_shm(_slab, n, sliced={"out": out}, writes=("out",))
    return z, g
'''

R002_GOOD = '''\
from numpy.random import default_rng
from repro.rng import MT19937

def _slab(arrays, consts, a, b, slab):
    gen = MT19937(consts["seed"])        # plan-derived seed
    arrays["out"][:] = 0.0

def run(ex, out, n):
    rng = default_rng(2012)
    ex.map_shm(_slab, n, sliced={"out": out}, writes=("out",),
               consts={"seed": 2012})
    return rng
'''

R003_BAD = '''\
def run(ex, out, n):
    def body(arrays, consts, a, b, slab):    # closure capture
        arrays["out"][:] = 1.0
    ex.map_shm(body, n, sliced={"out": out}, writes=("out",))
    ex.map_shm(lambda arrays, consts, a, b, slab: None, n,
               sliced={"out": out}, writes=("out",))
'''

R003_GOOD = '''\
def _body(arrays, consts, a, b, slab):
    arrays["out"][:] = 1.0

def run(ex, out, n):
    ex.map_shm(_body, n, sliced={"out": out}, writes=("out",))
'''

R004_BAD = '''\
import numpy as np

def kernel(n, w):
    out = np.empty(n)                    # dtype decided elsewhere
    x = np.zeros(n, dtype=np.float32)    # mixes with float64
    y = np.asarray(w, dtype="float32")
    return out, x, y
'''

R004_GOOD = '''\
import numpy as np

DTYPE = np.float64

def kernel(n, x):
    out = np.empty(n, dtype=DTYPE)
    s = np.empty_like(x)                 # *_like inherits the dtype
    return out, s
'''

R005_BAD = '''\
def _slab(arrays, consts, a, b, slab):
    arrays["out"][:] = 1.0
    arrays["err"][:] = 2.0               # mutated but not declared

def run(ex, out, err, n):
    ex.map_shm(_slab, n,
               sliced={"out": out, "err": err},
               writes=("out",))
'''

R005_GOOD = '''\
def _slab(arrays, consts, a, b, slab):
    arrays["out"][:] = 1.0
    arrays["err"][:] = 2.0

def run(ex, out, err, n):
    ex.map_shm(_slab, n,
               sliced={"out": out, "err": err},
               writes=("out", "err"))
'''

# R006-R009 bad snippets are mutated copies of the real serving-stack
# code (gateway close/dispatch, daemon worker loops); the good snippets
# are the shapes the tree actually ships.

R006_BAD = '''\
import time

class Gateway:
    async def submit(self, request):
        plan = self._executor.compile_shm(request.schedule)  # blocks loop
        time.sleep(0.01)                                     # parks loop
        return plan

    async def close(self):
        self._pool.shutdown()                # joins worker threads
'''

R006_GOOD = '''\
import asyncio

class Gateway:
    async def submit(self, request):
        loop = asyncio.get_running_loop()
        plan = await loop.run_in_executor(
            self._pool, self._executor.compile_shm, request.schedule)
        await asyncio.sleep(0.01)
        return plan

    async def close(self):
        self._pool.shutdown(wait=False)
'''

R007_BAD = '''\
import threading

async def flush(batch):
    for req in batch:
        submit_ring.push(req.seq, req.plan, req.slab, 0)   # loop pushes

def _dispatch_loop():
    while True:
        submit_ring.push(1, 2, 3, 0)       # ...and so does the thread

def _worker_loop():
    ack_ring.push(7, 0, 0, 0)              # shared ring, N workers

def start(n):
    threading.Thread(target=_dispatch_loop, daemon=True).start()
    for _ in range(n):
        threading.Thread(target=_worker_loop, daemon=True).start()
'''

R007_GOOD = '''\
import threading

async def flush(batch, queue):
    await queue.put(batch)                 # the loop only enqueues

def _dispatch_loop():
    while True:
        submit_ring.push(1, 2, 3, 0)       # single owner context

def _worker_main(name):
    ack = Ring.attach(name)                # each spawn attaches its own
    try:
        while True:
            ack.push(7, 0, 0, 0)
    finally:
        ack.close()

def start(n):
    threading.Thread(target=_dispatch_loop, daemon=True).start()
    for i in range(n):
        threading.Thread(target=_worker_main, args=(str(i),)).start()
'''

R008_BAD = '''\
def price_once(name, seq, plan, slab):
    ring = Ring.attach(name)
    ring.push(seq, plan, slab, 0)      # raises -> the mapping leaks
    ring.close()                       # fall-through path only

def observe(name):
    Ring.attach(name)                  # result discarded: leaked

def start_worker(ctx, body):
    proc = ctx.Process(target=body)
    proc.start()                       # no stop/join on any path
'''

R008_GOOD = '''\
def price_once(name, seq, plan, slab):
    ring = Ring.attach(name)
    try:
        ring.push(seq, plan, slab, 0)
    finally:
        ring.close()

def observe(name):
    with Ring.attach(name) as ring:
        return ring.header()

class WorkerHandle:
    def start(self, ctx, body):
        self._proc = ctx.Process(target=body)
        self._proc.start()

    def stop(self):
        self._proc.join()
'''

R009_BAD = '''\
class StagingCache:
    def __init__(self):
        self._entries = {}
        self._hits = 0

    async def lookup(self, key):       # the event loop mutates...
        self._hits += 1
        self._entries[key] = key

    def _dispatch_loop(self):          # ...and so does the thread
        self._hits += 1
        self._entries.pop(None, None)

    def start(self, loop):
        loop.run_in_executor(None, self._dispatch_loop)
'''

R009_GOOD = '''\
import threading

class StagingCache:
    def __init__(self):
        self._entries = {}
        self._hits = 0
        self._lock = threading.Lock()

    async def lookup(self, key):
        with self._lock:
            self._hits += 1
            self._entries[key] = key

    def _dispatch_loop(self):
        with self._lock:
            self._hits += 1
            self._entries.pop(None, None)

    def start(self, loop):
        loop.run_in_executor(None, self._dispatch_loop)
'''

R010_BAD = '''\
import struct

ABI_VERSION = 2
_HEADER = struct.Struct("<IIIIQQ")
_HEADER_BYTES = 64
_HEAD_OFF = 16
_TAIL_OFF = 24
_DOOR_OFF = 32
_PAYLOAD = struct.Struct("<QIIQQ")     # widened without a bump

_ABI_MANIFEST = {
    1: {"header": "<IIIIQQ", "header_bytes": 64, "head_off": 16,
        "tail_off": 24, "door_off": 32, "payload": "<QIIQ",
        "arg": "unused (zero)"},
    2: {"header": "<IIIIQQ", "header_bytes": 64, "head_off": 16,
        "tail_off": 24, "door_off": 32, "payload": "<QIIQ"},
}
'''

R010_GOOD = '''\
import struct

ABI_VERSION = 2
_HEADER = struct.Struct("<IIIIQQ")
_HEADER_BYTES = 64
_HEAD_OFF = 16
_TAIL_OFF = 24
_DOOR_OFF = 32
_PAYLOAD = struct.Struct("<QIIQ")

_ABI_MANIFEST = {
    1: {"header": "<IIIIQQ", "header_bytes": 64, "head_off": 16,
        "tail_off": 24, "door_off": 32, "payload": "<QIIQ",
        "arg": "unused (zero)"},
    2: {"header": "<IIIIQQ", "header_bytes": 64, "head_off": 16,
        "tail_off": 24, "door_off": 32, "payload": "<QIIQ",
        "arg": "output_set_id of the pinned plan (0 = legacy)"},
}
'''

FIXTURES = {
    "R001": {"bad": R001_BAD, "bad_count": 3, "good": R001_GOOD},
    "R002": {"bad": R002_BAD, "bad_count": 5, "good": R002_GOOD},
    "R003": {"bad": R003_BAD, "bad_count": 2, "good": R003_GOOD},
    "R004": {"bad": R004_BAD, "bad_count": 3, "good": R004_GOOD},
    "R005": {"bad": R005_BAD, "bad_count": 1, "good": R005_GOOD},
    "R006": {"bad": R006_BAD, "bad_count": 3, "good": R006_GOOD},
    "R007": {"bad": R007_BAD, "bad_count": 2, "good": R007_GOOD},
    "R008": {"bad": R008_BAD, "bad_count": 3, "good": R008_GOOD},
    "R009": {"bad": R009_BAD, "bad_count": 2, "good": R009_GOOD},
    "R010": {"bad": R010_BAD, "bad_count": 2, "good": R010_GOOD},
}
