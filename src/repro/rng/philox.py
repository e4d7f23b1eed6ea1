"""Philox-4x32-10 counter-based generator.

A counter-based RNG complements the twister family: any element of the
stream is computable directly from (key, counter), so parallel workers
can partition a logical stream by counter offset with zero state exchange
— the natural fit for the paper's "one option = one SIMD lane, one chunk
= one thread" decomposition, and an ablation point against MT2203 in the
RNG benchmarks.

Constants are the published Philox-4x32 multipliers and Weyl keys
(Salmon et al., SC'11); rounds = 10. The implementation is array-widths
vectorized: one call produces 4 words per counter for a whole counter
block.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError

_MULT_HI = np.uint64(0xD2511F53)
_MULT_LO = np.uint64(0xCD9E8D57)
_WEYL_0 = np.uint32(0x9E3779B9)
_WEYL_1 = np.uint32(0xBB67AE85)
_ROUNDS = 10
_MASK32 = np.uint64(0xFFFFFFFF)


def _philox_block(counters: np.ndarray, key0: np.uint32,
                  key1: np.uint32) -> np.ndarray:
    """Run Philox-4x32-10 on an (n, 4) uint32 counter block; returns the
    (n, 4) output block."""
    x0 = counters[:, 0].astype(np.uint64)
    x1 = counters[:, 1].astype(np.uint64)
    x2 = counters[:, 2].astype(np.uint64)
    x3 = counters[:, 3].astype(np.uint64)
    k0 = np.uint64(key0)
    k1 = np.uint64(key1)
    for _ in range(_ROUNDS):
        p0 = _MULT_HI * x0
        p1 = _MULT_LO * x2
        hi0, lo0 = p0 >> np.uint64(32), p0 & _MASK32
        hi1, lo1 = p1 >> np.uint64(32), p1 & _MASK32
        y0 = hi1 ^ x1 ^ k0
        y1 = lo1
        y2 = hi0 ^ x3 ^ k1
        y3 = lo0
        x0, x1, x2, x3 = y0, y1, y2, y3
        k0 = (k0 + np.uint64(_WEYL_0)) & _MASK32
        k1 = (k1 + np.uint64(_WEYL_1)) & _MASK32
    out = np.empty((counters.shape[0], 4), dtype=np.uint32)
    out[:, 0] = x0.astype(np.uint32)
    out[:, 1] = x1.astype(np.uint32)
    out[:, 2] = x2.astype(np.uint32)
    out[:, 3] = x3.astype(np.uint32)
    return out


class Philox:
    """Philox-4x32-10 stream.

    Parameters
    ----------
    key:
        64-bit stream key (two 32-bit key words). Streams with distinct
        keys are independent by construction.
    counter_start:
        Starting value of the 128-bit block counter (for partitioning one
        key's stream among workers).
    """

    def __init__(self, key: int = 0, counter_start: int = 0):
        if key < 0 or key >= 1 << 64:
            raise ConfigurationError("key must fit in 64 bits")
        if counter_start < 0 or counter_start >= 1 << 128:
            raise ConfigurationError("counter must fit in 128 bits")
        self._key0 = np.uint32(key & 0xFFFFFFFF)
        self._key1 = np.uint32((key >> 32) & 0xFFFFFFFF)
        self._counter = counter_start

    def _counters(self, n_blocks: int) -> np.ndarray:
        c = self._counter + np.arange(n_blocks, dtype=object)
        out = np.empty((n_blocks, 4), dtype=np.uint32)
        # 128-bit counters split little-endian into 4 words; for realistic
        # draw counts only the low words vary, so build from int64 fast path
        # when possible.
        if self._counter + n_blocks < (1 << 62):
            lo = (self._counter + np.arange(n_blocks, dtype=np.uint64))
            out[:, 0] = (lo & _MASK32).astype(np.uint32)
            out[:, 1] = (lo >> np.uint64(32)).astype(np.uint32)
            out[:, 2] = 0
            out[:, 3] = 0
        else:
            for i, ci in enumerate(c):
                out[i, 0] = ci & 0xFFFFFFFF
                out[i, 1] = (ci >> 32) & 0xFFFFFFFF
                out[i, 2] = (ci >> 64) & 0xFFFFFFFF
                out[i, 3] = (ci >> 96) & 0xFFFFFFFF
        return out

    def raw(self, n: int) -> np.ndarray:
        """``n`` 32-bit outputs (4 per counter block)."""
        if n < 0:
            raise ConfigurationError("n must be non-negative")
        n_blocks = -(-n // 4)
        if n_blocks == 0:
            return np.empty(0, dtype=np.uint32)
        block = _philox_block(self._counters(n_blocks), self._key0, self._key1)
        self._counter += n_blocks
        return block.reshape(-1)[:n]

    def uniform53(self, n: int) -> np.ndarray:
        """``n`` doubles in [0, 1) with 53-bit resolution."""
        r = self.raw(2 * n).astype(np.uint64)
        a = r[0::2] >> np.uint64(5)
        b = r[1::2] >> np.uint64(6)
        return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0)

    def skip(self, n_draws: int) -> None:
        """Advance the stream by ``n_draws`` raw outputs in O(1)."""
        if n_draws < 0:
            raise ConfigurationError("n_draws must be non-negative")
        self._counter += -(-n_draws // 4)

    def split(self, worker: int, n_workers: int, draws_per_worker: int) -> "Philox":
        """A generator positioned at worker ``worker``'s partition of this
        stream (contiguous blocks of ``draws_per_worker`` draws)."""
        if not 0 <= worker < n_workers:
            raise ConfigurationError("worker index out of range")
        blocks = -(-draws_per_worker // 4)
        return Philox(
            key=int(self._key0) | (int(self._key1) << 32),
            counter_start=self._counter + worker * blocks,
        )
