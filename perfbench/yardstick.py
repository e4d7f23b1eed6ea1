"""The benchmark's own speed reference.  FROZEN: do not edit.

This host flips, for seconds at a time, between a state in which
Python runs at full speed and one in which call-overhead-bound code is
~1.6x slower and vector-bound numpy ~1.4x slower.  A raw wall-clock
median then depends on which state most of a run happened to sit in.
The two routines below do a fixed amount of work that no change to
``repro`` can alter (they import numpy and builtins only), so the time
they take measures the host, and a sample divided by the yardstick that
ran beside it measures the program.

``yard_call`` is bound by interpreter and ufunc call overhead (900 tiny
ufunc calls), ``yard_vec`` by vector arithmetic (120 ufunc sweeps over
4096 doubles).  Changing either redefines every speed-corrected metric:
the reference constants in :mod:`perfbench.spec` and the whole
calibration would have to be redone.
"""

import time

import numpy as np

#: The yardsticks, in the order :func:`probe` reports them.
YARDS = ("call", "vec")

_A = np.linspace(1.0, 2.0, 128)
_C = np.full(128, 1.0000001)
_B = np.empty(128)
_X = np.linspace(0.5, 1.5, 4096)
_Y = np.empty(4096)


def yard_call() -> float:
    a, b, c = _A, _B, _C
    multiply, add, maximum = np.multiply, np.add, np.maximum
    acc = 0.0
    for _ in range(300):
        multiply(a, c, out=b)
        add(b, a, out=b)
        maximum(b, a, out=b)
        acc += 1.0
    return acc


def yard_vec() -> None:
    x, y = _X, _Y
    exp, multiply, sqrt = np.exp, np.multiply, np.sqrt
    for _ in range(40):
        exp(x, out=y)
        multiply(y, x, out=y)
        sqrt(y, out=y)


def probe() -> tuple:
    """``(yard_call seconds, yard_vec seconds)``: each the median of
    three interleaved runs (about 2.4 ms in all)."""
    clock = time.perf_counter
    call = [0.0, 0.0, 0.0]
    vec = [0.0, 0.0, 0.0]
    for i in range(3):
        t0 = clock()
        yard_call()
        t1 = clock()
        yard_vec()
        t2 = clock()
        call[i] = t1 - t0
        vec[i] = t2 - t1
    call.sort()
    vec.sort()
    return call[1], vec[1]
