"""Speed-corrected timing: the one measurement rule of the benchmark.

Every timed sample is bracketed by :func:`perfbench.yardstick.probe`
readings.  A timed quantity declares, in :mod:`perfbench.spec`, what
bounds it: the share of its time that each yardstick bounds (the rest
is not slowed by what slows the yardsticks).  A sample's corrected time
is

    t / (sum_y share_y * y / Y_REF + 1 - sum_y share_y)

with ``y`` the mean of the bracketing probes of yardstick ``y`` (all of
the share on one yardstick: ``t * Y_REF / y``; no share: raw), and a
metric is the median of its corrected samples.  The raw median is kept
beside it (``host.*`` per-layer figures).
"""

from __future__ import annotations

import statistics
import time

from . import spec
from .yardstick import YARDS, probe

_REF_S = tuple(spec.YARD_REF_US[y] * 1e-6 for y in YARDS)


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1,
                      int(round(q / 100.0 * (len(ordered) - 1)))))
    return float(ordered[rank])


class Host:
    """The instrument: takes probes and remembers them."""

    def __init__(self):
        self.probes: list = []          # one reading per yardstick, in order

    def probe(self) -> tuple:
        p = probe()
        self.probes.append(p)
        return p

    def summary(self) -> dict:
        """``host.yard_*`` medians and the contended share of probes."""
        if not self.probes:
            self.probe()
        out = {}
        contended = 0
        for col, yard in enumerate(YARDS):
            vals = [p[col] for p in self.probes]
            out[f"host.yard_{yard}_us"] = median(vals) * 1e6
            out[f"host.yard_{yard}_p5_us"] = percentile(vals, 5.0) * 1e6
            floor = percentile(vals, 5.0) * spec.CONTENDED_FACTOR
            contended = max(contended, sum(v > floor for v in vals))
        out["host.contended_share"] = contended / len(self.probes)
        return out


def _shares(weights: dict) -> tuple:
    return tuple(float(weights.get(y, 0.0)) for y in YARDS)


class Samples:
    """Raw times of one timed quantity and the yardstick readings
    beside each, from which any correction can be computed."""

    def __init__(self, quantity: str):
        self.quantity = quantity
        self.weights = spec.YARDSTICK[quantity]
        self.raw: list = []
        self.beside: list = []          # mean bracketing probe per sample

    def add(self, seconds: float, before: tuple, after: tuple) -> None:
        self.raw.append(seconds)
        self.beside.append(tuple(0.5 * (a + b)
                                 for a, b in zip(before, after)))

    def extend(self, other: "Samples") -> None:
        self.raw += other.raw
        self.beside += other.beside

    def __len__(self) -> int:
        return len(self.raw)

    def corrected(self, weights: dict | None = None) -> list:
        shares = _shares(self.weights if weights is None else weights)
        rest = 1.0 - sum(shares)
        return [t / (sum(s * y / ref
                         for s, y, ref in zip(shares, beside, _REF_S))
                     + rest)
                for t, beside in zip(self.raw, self.beside)]

    def median_s(self) -> float:
        return median(self.corrected())

    def describe(self) -> dict:
        """The median as declared, under each yardstick alone and raw:
        what calibration compares when it re-checks the declaration."""
        out = {"weights": self.weights, "n": len(self.raw),
               "corrected_s": self.median_s(), "raw_s": median(self.raw)}
        for yard in YARDS:
            out[f"{yard}_only_s"] = median(self.corrected({yard: 1.0}))
        return out

    def dump(self) -> dict:
        """Every sample with the yardstick readings beside it, for
        calibration to re-fit the declaration from."""
        out = {"raw_s": self.raw}
        for col, yard in enumerate(YARDS):
            out[f"{yard}_s"] = [b[col] for b in self.beside]
        return out


def micro(host: Host, fn, *, inner: int, rounds: int = 5,
          quantity: str = "layer") -> float:
    """Corrected seconds per call of a small function: ``rounds``
    probe-bracketed bursts of ``inner`` calls, median burst."""
    samples = Samples(quantity)
    fn()
    before = host.probe()
    for _ in range(rounds):
        t0 = time.perf_counter()
        for _ in range(inner):
            fn()
        elapsed = time.perf_counter() - t0
        after = host.probe()
        samples.add(elapsed / inner, before, after)
        before = after
    return samples.median_s()
