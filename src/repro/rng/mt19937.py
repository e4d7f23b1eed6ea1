"""Mersenne Twister MT19937, from scratch, block-vectorized.

This is the reproduction's stand-in for the MKL Mersenne-twister BRNG the
paper uses as the basis of its random-number pipeline (Sec. IV-D3). The
implementation is bit-exact with Matsumoto & Nishimura's ``mt19937ar.c``
(and therefore with NumPy's legacy ``RandomState`` seeding, which the test
suite checks state-for-state), but the twist and tempering are evaluated
as whole-state NumPy array operations — the same "generate a block, then
consume it" structure a wide-SIMD implementation uses.

The tricky part of vectorizing the twist is its in-place cascade: element
``k`` of the new state depends on new element ``k−(n−m)``. The update is
therefore staged into three slices whose dependencies only reach into
already-computed slices, with the final element (which reads the *new*
``mt[0]``, exactly as the reference C does) redone in between.

There is one twist, temper and fold (:func:`twist_inplace` and below),
allocation-free and written over the **last** axis of the state: ``mt``
is ``(624,)`` — the :class:`MT19937` class — or ``(lanes, 624)``, many
positions of the *one* stream advanced by the same ufunc calls: the
paper's many-streams strategy with *streams x state words* as the vector
axis.  All lanes share one ``mti`` (they twist together and are consumed
in lock step); a 1-D state is the one-lane case of the same code.  Every
operation is a bitwise or integer op (or an exact float fold), so each
lane's outputs are bit-for-bit the scalar reference's.
"""

from __future__ import annotations

import sys

import numpy as np

from ..errors import ConfigurationError

_N = 624
_M = 397
_MATRIX_A = np.uint32(0x9908B0DF)
_UPPER = np.uint32(0x80000000)
_LOWER = np.uint32(0x7FFFFFFF)

_T_B = np.uint32(0x9D2C5680)
_T_C = np.uint32(0xEFC60000)


def _init_genrand(seed: int) -> np.ndarray:
    """Knuth-style state initialisation (``init_genrand``)."""
    mt = np.empty(_N, dtype=np.uint32)
    s = seed & 0xFFFFFFFF
    mt[0] = s
    prev = s
    for i in range(1, _N):
        prev = (1812433253 * (prev ^ (prev >> 30)) + i) & 0xFFFFFFFF
        mt[i] = prev
    return mt


def _init_by_array(init_key) -> np.ndarray:
    """Array seeding (``init_by_array``), for parity with the reference
    test vectors."""
    key = [int(k) & 0xFFFFFFFF for k in init_key]
    if not key:
        raise ConfigurationError("init key must be non-empty")
    mt = _init_genrand(19650218)
    state = [int(v) for v in mt]
    i, j = 1, 0
    for _ in range(max(_N, len(key))):
        state[i] = ((state[i] ^ ((state[i - 1] ^ (state[i - 1] >> 30))
                                 * 1664525)) + key[j] + j) & 0xFFFFFFFF
        i += 1
        j += 1
        if i >= _N:
            state[0] = state[_N - 1]
            i = 1
        if j >= len(key):
            j = 0
    for _ in range(_N - 1):
        state[i] = ((state[i] ^ ((state[i - 1] ^ (state[i - 1] >> 30))
                                 * 1566083941)) - i) & 0xFFFFFFFF
        i += 1
        if i >= _N:
            state[0] = state[_N - 1]
            i = 1
    state[0] = 0x80000000
    return np.array(state, dtype=np.uint32)


class MT19937:
    """Block-vectorized MT19937 generator.

    Parameters
    ----------
    seed:
        Integer seed (``init_genrand``) or a sequence (``init_by_array``).
    """

    state_size = _N

    def __init__(self, seed=5489):
        if isinstance(seed, (list, tuple, np.ndarray)):
            self._mt = _init_by_array(seed)
        else:
            if not isinstance(seed, (int, np.integer)):
                raise ConfigurationError(
                    f"seed must be an int or a sequence, got {type(seed)}"
                )
            self._mt = _init_genrand(int(seed))
        self._mti = _N  # force a twist on first draw
        self._ws = block_workspace()

    # ------------------------------------------------------------------
    def raw(self, n: int) -> np.ndarray:
        """``n`` tempered 32-bit outputs as uint32."""
        if n < 0:
            raise ConfigurationError("n must be non-negative")
        out = np.empty(n, dtype=np.uint32)
        self.raw_into(out)
        return out

    def raw_into(self, out: np.ndarray) -> None:
        """The next ``out.size`` tempered outputs into the 1-D
        ``uint32`` array ``out``."""
        self._mti = raw_into(self._mt, self._mti, out, self._ws)

    def uniform53(self, n: int) -> np.ndarray:
        """``n`` doubles in [0, 1) with 53-bit resolution
        (``genrand_res53``: two 32-bit draws per double), through the
        module's one :func:`uniform53`."""
        return uniform53(self, n)

    def uniform32(self, n: int) -> np.ndarray:
        """``n`` doubles in [0, 1) with 32-bit resolution (one draw per
        double — the cheap variant)."""
        return self.raw(n) * (1.0 / 4294967296.0)

    def state(self) -> tuple:
        """(key, pos) — comparable with NumPy's ``RandomState.get_state``."""
        return self._mt.copy(), self._mti

    def jumped_copy(self, draws: int) -> "MT19937":
        """A copy advanced by ``draws`` raw outputs (sequential skip; MT
        has no cheap log-time jump without the polynomial tables).
        Skipped draws are never tempered or materialised: the skip is
        whole-state twists plus an index, leaving exactly the state and
        ``mti`` that :meth:`raw` would."""
        g = MT19937.__new__(MT19937)
        g._mt = self._mt.copy()
        g._mti = self._mti
        g._ws = block_workspace()
        if draws > 0:
            twists, last = divmod(self._mti + draws - 1, _N)
            for _ in range(twists):
                twist_inplace(g._mt, g._ws)
            g._mti = last + 1
        return g


# ----------------------------------------------------------------------
# The generator body: lane-batched, through a caller-owned workspace.

#: Lanes per batched twist: each lane tabulates its own run of whole
#: 624-word blocks of the stream, started from a jump-ahead snapshot.
#: Warm run of 2^18 doubles in two slabs, raw ms (median of 31,
#: interleaved) by lane count — 1: 62.4, 8: 11.9, 16: 7.7, 32: 6.2,
#: 48: 5.4, 64: 5.1, 96: 5.1, 128: 5.0 — flat from 48 up, so a
#: constant, not an argument.  (256 reads 3.6, but only because every
#: pass is then one block deep and so twist-free: a snapshot per 312
#: doubles is the whole untempered stream, stored.  At 64 the
#: snapshots stay under 320 KB a slab, the working set under 1 MB.)
LANES = 64

#: Doubles per 624-word block (``uniform53`` folds two raw draws each).
_HALF = _N // 2


def block_workspace(lanes: int | None = None, reserve=None) -> np.ndarray:
    """Scratch for the functions below: ``(4, lanes, 624)`` uint32
    (``(4, 624)`` for a 1-D state) — twist ``y``, shared temporary,
    tempered block, and the lane state :func:`uniform53_lanes` restores
    snapshots into.  ``reserve`` (planned code) has the signature of
    :meth:`~repro.plan.WorkspaceArena.reserve`; default: a fresh array."""
    shape = (4, _N) if lanes is None else (4, lanes, _N)
    if reserve is None:
        return np.empty(shape, dtype=np.uint32)
    return reserve("mtws", shape, np.uint32)


def _f_inplace(y: np.ndarray, tmp: np.ndarray) -> None:
    """``y <- (y >> 1) ^ (MATRIX_A if y odd else 0)``, the odd test as
    a multiply by the low bit."""
    np.bitwise_and(y, np.uint32(1), out=tmp)
    np.multiply(tmp, _MATRIX_A, out=tmp)
    np.right_shift(y, np.uint32(1), out=y)
    np.bitwise_xor(y, tmp, out=y)


def twist_inplace(mt: np.ndarray, ws: np.ndarray) -> None:
    """One full twist of every lane's 624-word state, in place.  ``y``
    of words 0..622 reads old words only, so it is formed (and pushed
    through ``f``) first, over the flattened ``lanes·624`` words in one
    contiguous call each (lanes must be C-contiguous; word 623 of a
    lane gets a throw-away value there) and redone for word 623 once
    the first staged slice has written the new word 0 it reads."""
    y, t = ws[0], ws[1]
    if not (mt.flags.c_contiguous and y.flags.c_contiguous):
        raise ConfigurationError("MT19937 lanes must be C-contiguous")
    nm = _N - _M  # 227
    flat, yf, tf = mt.reshape(-1), y.reshape(-1)[:-1], t.reshape(-1)[:-1]
    np.bitwise_and(flat[:-1], _UPPER, out=yf)
    np.bitwise_and(flat[1:], _LOWER, out=tf)
    np.bitwise_or(yf, tf, out=yf)
    _f_inplace(yf, tf)
    np.bitwise_xor(mt[..., _M:], y[..., :nm], out=mt[..., :nm])
    np.bitwise_and(mt[..., -1], _UPPER, out=y[..., -1])
    np.bitwise_and(mt[..., 0], _LOWER, out=t[..., -1])
    np.bitwise_or(y[..., -1], t[..., -1], out=y[..., -1])
    _f_inplace(y[..., -1], t[..., -1])
    np.bitwise_xor(mt[..., :nm], y[..., nm:2 * nm],
                   out=mt[..., nm:2 * nm])
    # Reads mt[227:397], writes mt[454:624] — disjoint, safe in place.
    np.bitwise_xor(mt[..., nm:_M], y[..., 2 * nm:], out=mt[..., 2 * nm:])


def temper_into(src: np.ndarray, out: np.ndarray,
                tmp: np.ndarray) -> None:
    """The MT19937 tempering of ``src`` into ``out`` (``tmp`` at least
    as wide as ``src`` along the last axis)."""
    t = tmp[..., :src.shape[-1]]
    np.right_shift(src, np.uint32(11), out=out)
    np.bitwise_xor(src, out, out=out)
    np.left_shift(out, np.uint32(7), out=t)
    np.bitwise_and(t, _T_B, out=t)
    np.bitwise_xor(out, t, out=out)
    np.left_shift(out, np.uint32(15), out=t)
    np.bitwise_and(t, _T_C, out=t)
    np.bitwise_xor(out, t, out=out)
    np.right_shift(out, np.uint32(18), out=t)
    np.bitwise_xor(out, t, out=out)


def raw_into(mt: np.ndarray, mti: int, out: np.ndarray,
             ws: np.ndarray) -> int:
    """The next ``n`` tempered outputs of every lane into
    ``out[..., :n]``; returns the advanced ``mti`` (state advances in
    ``mt`` itself)."""
    n = out.shape[-1]
    filled = 0
    while filled < n:
        if mti >= _N:
            twist_inplace(mt, ws)
            mti = 0
        take = min(n - filled, _N - mti)
        temper_into(mt[..., mti:mti + take],
                    out[..., filled:filled + take], ws[1])
        mti += take
        filled += take
    return mti


#: Which half of a draw pair's ``uint64`` view holds the first draw:
#: the low half on a little-endian host, the high half on a big-endian
#: one.
A_IS_LOW = sys.byteorder == "little"


def fold53(w: np.ndarray, tmp: np.ndarray, a_is_low: bool = A_IS_LOW) -> None:
    """Fold each draw pair ``(a, b)``, viewed as one ``uint64`` in
    ``w``, into ``((a >> 5) << 26) | (b >> 6)`` in place — exactly
    ``(a >> 5)·2^26 + (b >> 6) < 2^53``, so it converts to float64
    exactly.  ``a_is_low`` says which half holds ``a``; ``tmp`` is
    ``uint64`` scratch shaped like ``w``."""
    if a_is_low:                                        # w = b·2^32 + a
        np.right_shift(w, np.uint64(38), out=tmp)        # b >> 6
        np.bitwise_and(w, np.uint64(0xFFFFFFE0), out=w)  # (a >> 5) << 5
        np.left_shift(w, np.uint64(21), out=w)
    else:                                               # w = a·2^32 + b
        np.bitwise_and(w, np.uint64(0xFFFFFFFF), out=tmp)  # b
        np.right_shift(tmp, np.uint64(6), out=tmp)       # b >> 6
        np.right_shift(w, np.uint64(37), out=w)          # a >> 5
        np.left_shift(w, np.uint64(26), out=w)
    np.bitwise_or(w, tmp, out=w)


def uniform53(gen, n: int) -> np.ndarray:
    """``genrand_res53`` of any basic generator with a
    ``raw_into(out_uint32)`` method (:class:`MT19937`,
    :class:`~repro.rng.mt2203.MT2203`): ``n`` doubles in [0, 1) from
    ``2n`` draws.  The draws land in one ``uint64`` buffer,
    :func:`fold53` folds each pair in place, and the result is that
    buffer scaled to float64 in place — exact at every step, so
    bit-identical to the scalar reference."""
    if n < 0:
        raise ConfigurationError("n must be non-negative")
    w = np.empty(n, dtype=np.uint64)
    gen.raw_into(w.view(np.uint32))
    fold53(w, np.empty_like(w))
    return np.multiply(w, 1.0 / 9007199254740992.0,
                       out=w.view(np.float64))


def uniform53_into(mt: np.ndarray, mti: int, out: np.ndarray,
                   ws: np.ndarray) -> int:
    """``genrand_res53`` of every lane into ``out`` (float64, ``n``
    doubles along the last axis), one 624-word block at a time: the
    tempered block ``ws[2]`` is read as 312 ``uint64`` draw pairs,
    :func:`fold53` forms ``a·2^26 + b`` (``a``, ``b`` shifted right by
    5 and 6) in integers, and one multiply by 2^-53 converts it.  Every
    step is exact, so doubles are bit-identical to the scalar
    ``genrand_res53`` reference
    (:class:`~repro.kernels.rng_kernel.ScalarMT19937`); the fold is the
    one :func:`uniform53` runs on a whole buffer."""
    n = out.shape[-1]
    tmp, pairs = ws[1:3].view(np.uint64)
    for c in range(0, n, _HALF):
        k = min(_HALF, n - c)
        mti = raw_into(mt, mti, ws[2][..., :2 * k], ws)
        w = pairs[..., :k]
        fold53(w, tmp[..., :k])
        np.multiply(w, 1.0 / 9007199254740992.0, out=out[..., c:c + k])
    return mti


def lane_passes(n_doubles: int) -> list:
    """How a run of ``n_doubles`` consecutive doubles is split over
    lanes: ``[(lanes, doubles_per_lane), ...]`` in stream order —
    ``min(LANES, blocks)`` lanes of equally many whole 624-word blocks,
    the left-over whole blocks as a second one-block-deep pass, the
    sub-block tail on one lane."""
    blocks, tail = divmod(n_doubles, _HALF)
    lanes = min(LANES, blocks)
    per = blocks // lanes if lanes else 0
    return [(l, k) for l, k in ((lanes, per * _HALF),
                                (blocks - per * lanes, _HALF), (1, tail))
            if l and k]


def advance_window(w: np.ndarray, draws: int, ws: np.ndarray) -> None:
    """Slide the *aligned* 1-D state ``w`` — one whose next raw output
    is ``temper(w[0])``, i.e. ``mti = 0`` — ``draws`` outputs down its
    stream, keeping it aligned.  The recurrence is shift-invariant, so
    any 624 consecutive words of the word stream are a valid state:
    whole blocks are twists, a remainder ``e`` splices ``w[e:]`` onto
    the first ``e`` words of the next twist."""
    blocks, e = divmod(draws, _N)
    for _ in range(blocks):
        twist_inplace(w, ws)
    if e:
        head = w[e:].copy()
        twist_inplace(w, ws)
        w[_N - e:] = w[:e]
        w[:_N - e] = head


def snapshot_lanes(w: np.ndarray, n_doubles: int, ws: np.ndarray) -> list:
    """Walk the aligned state ``w`` (see :func:`advance_window`) across
    the next ``n_doubles`` doubles of its stream, returning one aligned
    jump-ahead state per lane of :func:`lane_passes`, in pass order.
    Every snapshot is aligned, so a lane's first block needs no twist
    and all lanes of a pass twist together from ``mti = 0``."""
    snaps = []
    for lanes, k in lane_passes(n_doubles):
        for _ in range(lanes):
            snaps.append(w.copy())
            advance_window(w, 2 * k, ws)
    return snaps


def uniform53_lanes(snaps: np.ndarray, out: np.ndarray,
                    ws: np.ndarray) -> None:
    """Tabulate ``out`` (1-D float64) from the ``(rows, 624)`` array of
    the snapshots :func:`snapshot_lanes` took for ``len(out)`` doubles:
    each pass restores its lanes into the workspace's state rows and
    generates straight into its stretch of ``out`` viewed ``(lanes,
    doubles)``.  ``ws`` is a :func:`block_workspace` of at least the
    widest pass's lanes."""
    if not out.flags.c_contiguous:
        raise ConfigurationError("uniform53_lanes fills a contiguous out")
    row = done = 0
    for lanes, k in lane_passes(out.shape[0]):
        lane_ws = ws[:, :lanes]
        np.copyto(lane_ws[3], snaps[row:row + lanes])
        uniform53_into(lane_ws[3], 0,
                       out[done:done + lanes * k].reshape(lanes, k),
                       lane_ws)
        row += lanes
        done += lanes * k
