"""Latency digests the gateway reports on live traffic.

Kept apart from :mod:`repro.bench` so ``PricingGateway.stats`` loads no
bench module; :mod:`repro.bench.stats` re-exports both helpers for the
serving loadtest.
"""

from __future__ import annotations

from ..errors import ExperimentError


def percentile(samples, q: float, *, is_sorted: bool = False) -> float:
    """Nearest-rank percentile ``q`` in ``[0, 1]`` of ``samples``.

    The estimator every bench in this package uses: index
    ``round(q * (n - 1))`` of the ascending samples — no interpolation,
    so the returned value is always an actually-observed sample (the
    honest choice for latency tails with few samples).
    """
    if not 0.0 <= q <= 1.0:
        raise ExperimentError(f"percentile q must be in [0, 1], got {q}")
    s = list(samples) if not is_sorted else samples
    if not s:
        return 0.0
    if not is_sorted:
        s.sort()
    rank = min(len(s) - 1, max(0, int(round(q * (len(s) - 1)))))
    return s[rank]


def latency_summary(samples_s, *, scale: float = 1.0,
                    suffix: str = "_s") -> dict:
    """Standard latency digest of raw per-call seconds.

    Returns ``n`` plus mean/p50/p99/p999/max under ``{name}{suffix}``
    keys, each multiplied by ``scale`` (pass ``1e3``/``"_ms"`` for
    millisecond reporting).  The shape shared by the gateway's service
    stats and the serving loadtest's per-rate rows.
    """
    s = sorted(samples_s)
    n = len(s)
    if n == 0:
        return {"n": 0}
    return {
        "n": n,
        f"mean{suffix}": scale * sum(s) / n,
        f"p50{suffix}": scale * percentile(s, 0.50, is_sorted=True),
        f"p99{suffix}": scale * percentile(s, 0.99, is_sorted=True),
        f"p999{suffix}": scale * percentile(s, 0.999, is_sorted=True),
        f"max{suffix}": scale * s[-1],
    }
