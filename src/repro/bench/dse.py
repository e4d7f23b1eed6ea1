"""Design-space exploration: the modeled surfaces behind ``BENCH_dse.json``.

The paper characterises two fixed 2012 chips; :mod:`repro.tune.space`
makes the machine model parametric, so this driver sweeps cores × SIMD
width × LLC capacity × bandwidth through the existing cost/roofline
models and records, per kernel and grid point, where the Ninja gap and
the serial/parallel crossover move.  The two real chips (SNB-EP, KNC)
ride along as *anchor rows* computed from the registered model builders
— if the resynthesis path drifts from the paper's Table 1 ladders, the
record shows the mismatch.

Nothing here times this host: the record is a deterministic function of
the model.  The *measured* crossover of the served path (compiled plans,
pooled vs forced-inline) is ``python -m repro scaling --crossover``
(:func:`~repro.bench.harness.measure_pool_crossover`).
"""

from __future__ import annotations


def measure_dse(axes: dict | None = None) -> dict:
    """The ``BENCH_dse.json`` payload: per modeled kernel, the chip
    anchors and the (ninja gap, bound, crossover) surface over ``axes``
    (default :data:`~repro.tune.space.DEFAULT_AXES`; CI passes
    :data:`~repro.tune.space.SMOKE_AXES`)."""
    from ..tune import DEFAULT_AXES, anchor_rows, kernel_surface
    from .ninja import GAP_KERNELS

    axes = axes or DEFAULT_AXES
    return {
        "axes": {k: list(v) for k, v in axes.items()},
        "surfaces": {
            kernel: {
                "anchors": anchor_rows(kernel),
                "grid": kernel_surface(kernel, axes),
            }
            for kernel in GAP_KERNELS
        },
    }


def _span(values, scale: float = 1.0) -> str:
    return f"{min(values) / scale:.1f}-{max(values) / scale:.1f}"


def dse_result(data: dict):
    """Render :func:`measure_dse` output through the standard
    experiment reporters (one row per kernel)."""
    from .experiments import ExperimentResult

    rows = []
    for kernel, surf in data["surfaces"].items():
        anchors = {a["platform"]: a for a in surf["anchors"]}
        grid = surf["grid"]
        xovers = [row["crossover_bytes"] for row in grid
                  if row["crossover_bytes"] != float("inf")]
        rows.append((
            kernel,
            round(anchors["SNB-EP"]["ninja_gap"], 1),
            round(anchors["KNC"]["ninja_gap"], 1),
            round(anchors["SNB-EP"]["crossover_bytes"] / 1024, 1),
            round(anchors["KNC"]["crossover_bytes"] / 1024, 1),
            _span([row["ninja_gap"] for row in grid]),
            _span(xovers, 1024) if xovers else "single-core",
        ))
    n_grid = len(next(iter(data["surfaces"].values()))["grid"])
    return ExperimentResult(
        exp_id="dse",
        title="Design-space exploration: modeled Ninja gap and "
              "serial/parallel crossover",
        headers=("kernel", "SNB-EP gap", "KNC gap", "SNB-EP xover KiB",
                 "KNC xover KiB", "grid gap", "grid xover KiB"),
        rows=rows,
        notes=[
            f"{n_grid} grid points per kernel: "
            + " x ".join(f"{k}={v}" for k, v in data["axes"].items()),
            "anchors come from the registered model builders, the grid "
            "from the resynthesised ladders; the measured crossover of "
            "the served path is `python -m repro scaling --crossover`",
        ],
    )
