"""Functional RNG tier ladder.

The paper's other five kernels get reference-vs-optimized functional
implementations; this gives the RNG kernel the same treatment:

* **reference** — a straight scalar transliteration of ``mt19937ar.c``
  (word-at-a-time twist and temper, Python ints);
* **optimized** — the block-vectorized :class:`repro.rng.MT19937`.

The two are bit-identical stream-for-stream (asserted in the tests), so
the functional benchmark between them isolates exactly the
vectorization gap on the host, the way Table II's rows isolate it on
the machines.
"""

from __future__ import annotations

import numpy as np

from ...errors import ConfigurationError

_N, _M = 624, 397
_MATRIX_A = 0x9908B0DF
_UPPER = 0x80000000
_LOWER = 0x7FFFFFFF


class ScalarMT19937:
    """Word-at-a-time MT19937 — the reference tier.

    Pure-Python state updates, one output per call path, as a scalar C
    loop would run it. Bit-compatible with :class:`repro.rng.MT19937`.
    """

    def __init__(self, seed: int = 5489):
        if not isinstance(seed, (int, np.integer)):
            raise ConfigurationError("seed must be an int")
        self._mt = [0] * _N
        s = int(seed) & 0xFFFFFFFF
        self._mt[0] = s
        for i in range(1, _N):
            s = (1812433253 * (s ^ (s >> 30)) + i) & 0xFFFFFFFF
            self._mt[i] = s
        self._mti = _N

    def _genrand_int32(self) -> int:
        mt = self._mt
        if self._mti >= _N:
            for kk in range(_N - _M):
                y = (mt[kk] & _UPPER) | (mt[kk + 1] & _LOWER)
                mt[kk] = mt[kk + _M] ^ (y >> 1) ^ (_MATRIX_A if y & 1
                                                   else 0)
            for kk in range(_N - _M, _N - 1):
                y = (mt[kk] & _UPPER) | (mt[kk + 1] & _LOWER)
                mt[kk] = mt[kk + _M - _N] ^ (y >> 1) ^ (_MATRIX_A
                                                        if y & 1 else 0)
            y = (mt[_N - 1] & _UPPER) | (mt[0] & _LOWER)
            mt[_N - 1] = mt[_M - 1] ^ (y >> 1) ^ (_MATRIX_A if y & 1
                                                  else 0)
            self._mti = 0
        y = mt[self._mti]
        self._mti += 1
        y ^= y >> 11
        y ^= (y << 7) & 0x9D2C5680
        y ^= (y << 15) & 0xEFC60000
        y ^= y >> 18
        return y & 0xFFFFFFFF

    def raw(self, n: int) -> np.ndarray:
        if n < 0:
            raise ConfigurationError("n must be non-negative")
        return np.array([self._genrand_int32() for _ in range(n)],
                        dtype=np.uint32)

    def uniform53(self, n: int) -> np.ndarray:
        """genrand_res53, word pair at a time."""
        out = np.empty(n, dtype=np.float64)
        for i in range(n):
            a = self._genrand_int32() >> 5
            b = self._genrand_int32() >> 6
            out[i] = (a * 67108864.0 + b) / 9007199254740992.0
        return out

