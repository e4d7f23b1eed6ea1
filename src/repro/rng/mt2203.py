"""MT2203-style Mersenne-twister stream family.

The paper's RNG is "the Intel MKL Mersenne twister (2203 variant)"
(Sec. IV-D3): a *family* of small Mersenne twisters (period 2^2203−1,
state n=69 words, tempering like MT19937) whose per-stream parameters come
from Matsumoto's dynamic-creator search, giving up to 6024 provably
independent streams — one per thread in a parallel Monte-Carlo run.

Substitution note (recorded in DESIGN.md): the dynamic-creator parameter
search (primitivity testing of the characteristic polynomial over GF(2))
is out of scope, so per-stream recurrence and tempering constants here are
derived from the stream id by an avalanche hash instead of the dcmt
tables. The *structure* is exact — n=69, m=34, r=5 (2208−2203), MT
recurrence, 4-step tempering — and stream quality/independence is
validated statistically in the test suite (moments, chi-square,
cross-correlation between streams).
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError
from .mt19937 import uniform53

_N = 69
_M = 34
_R = 5
_W = 32
_UPPER = np.uint32((0xFFFFFFFF << _R) & 0xFFFFFFFF)   # top w-r bits
_LOWER = np.uint32((1 << _R) - 1)                      # bottom r bits

#: Maximum stream count MKL documents for MT2203.
MAX_STREAMS = 6024


def _splitmix32(x: int) -> int:
    """32-bit avalanche hash used to derive per-stream constants."""
    x = (x + 0x9E3779B9) & 0xFFFFFFFF
    z = x
    z = ((z ^ (z >> 16)) * 0x85EBCA6B) & 0xFFFFFFFF
    z = ((z ^ (z >> 13)) * 0xC2B2AE35) & 0xFFFFFFFF
    return (z ^ (z >> 16)) & 0xFFFFFFFF


def stream_parameters(stream_id: int) -> dict:
    """Per-stream recurrence matrix ``a`` and tempering masks ``b, c``.

    ``a`` always has its top bit set (as all dcmt-generated matrices do);
    tempering shifts are MT2203's (12, 7, 15, 18).
    """
    if not 0 <= stream_id < MAX_STREAMS:
        raise ConfigurationError(
            f"stream_id must be in [0, {MAX_STREAMS}), got {stream_id}"
        )
    a = _splitmix32(stream_id * 3 + 1) | 0x80000000
    b = _splitmix32(stream_id * 3 + 2) & 0xFFFFFF80  # low bits clear like dcmt
    c = _splitmix32(stream_id * 3 + 3) & 0xFFFF8000
    return {"a": np.uint32(a), "b": np.uint32(b), "c": np.uint32(c)}


class MT2203:
    """One stream of the MT2203-style family.

    Parameters
    ----------
    stream_id:
        Which family member (0 .. 6023); determines the recurrence and
        tempering constants.
    seed:
        Seed for this stream's state.
    """

    state_size = _N

    def __init__(self, stream_id: int = 0, seed: int = 1):
        params = stream_parameters(stream_id)
        self.stream_id = stream_id
        self._a = params["a"]
        self._b = params["b"]
        self._c = params["c"]
        self._mt = self._init_state(int(seed) ^ _splitmix32(stream_id))
        self._mti = _N

    @staticmethod
    def _init_state(seed: int) -> np.ndarray:
        mt = np.empty(_N, dtype=np.uint32)
        prev = seed & 0xFFFFFFFF
        if prev == 0:
            prev = 0x6C078965
        mt[0] = prev
        for i in range(1, _N):
            prev = (1812433253 * (prev ^ (prev >> 30)) + i) & 0xFFFFFFFF
            mt[i] = prev
        return mt

    def _twist(self) -> None:
        mt = self._mt
        old = mt.copy()
        y = (old & _UPPER) | (np.roll(old, -1) & _LOWER)

        def f(yv):
            return (yv >> np.uint32(1)) ^ np.where(
                yv & np.uint32(1), self._a, np.uint32(0)
            )

        nm = _N - _M  # 35
        mt[:nm] = old[_M:] ^ f(y[:nm])
        mt[nm:_N - 1] = mt[:_M - 1] ^ f(y[nm:_N - 1])
        y_last = (old[_N - 1] & _UPPER) | (mt[0] & _LOWER)
        mt[_N - 1] = mt[_M - 1] ^ f(np.uint32(y_last))

    def _temper(self, y: np.ndarray) -> np.ndarray:
        y = y ^ (y >> np.uint32(12))
        y = y ^ ((y << np.uint32(7)) & self._b)
        y = y ^ ((y << np.uint32(15)) & self._c)
        y = y ^ (y >> np.uint32(18))
        return y

    def raw(self, n: int) -> np.ndarray:
        """``n`` tempered 32-bit outputs."""
        if n < 0:
            raise ConfigurationError("n must be non-negative")
        out = np.empty(n, dtype=np.uint32)
        self.raw_into(out)
        return out

    def raw_into(self, out: np.ndarray) -> None:
        """The next ``out.size`` tempered outputs into the 1-D
        ``uint32`` array ``out``, one 69-word state block at a time."""
        n = out.shape[0]
        filled = 0
        while filled < n:
            if self._mti >= _N:
                self._twist()
                self._mti = 0
            take = min(n - filled, _N - self._mti)
            out[filled:filled + take] = self._temper(
                self._mt[self._mti:self._mti + take]
            )
            self._mti += take
            filled += take

    def uniform53(self, n: int) -> np.ndarray:
        """``n`` doubles in [0, 1) with 53-bit resolution, through the
        one ``genrand_res53`` fold (:func:`~.mt19937.uniform53`)."""
        return uniform53(self, n)

    def uniform32(self, n: int) -> np.ndarray:
        """``n`` doubles in [0, 1) with 32-bit resolution."""
        return self.raw(n) * (1.0 / 4294967296.0)


def family(n_streams: int, seed: int = 1):
    """The first ``n_streams`` members of the family, commonly one per
    thread (MKL's usage model)."""
    if not 0 < n_streams <= MAX_STREAMS:
        raise ConfigurationError(
            f"n_streams must be in (0, {MAX_STREAMS}], got {n_streams}"
        )
    return [MT2203(i, seed) for i in range(n_streams)]
