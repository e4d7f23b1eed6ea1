"""Benchmark harness: experiment registry (one per paper table/figure),
Ninja-gap computation, text reporting and the measured studies (their
runner table lives in :mod:`.suite`, loaded only by the CLI)."""

from .export import FORMATS, from_json, render, to_csv, to_json
from .experiments import (EXPERIMENTS, ExperimentResult, fig4, fig5, fig6,
                          fig8, ninja_gap, run_all, run_experiment, table1,
                          table2)
from .dse import dse_result, measure_dse
from .greeks import greeks_result, measure_greeks
from .harness import (TimedRun, measure_parallel_speedup,
                      measure_pool_crossover, parallel_speedup_result,
                      time_run)
from .ninja import GAP_KERNELS, ninja_gaps, ninja_table
from .record import kernel_record, ratio_of, timing_fields
from .scaling_measured import measure_scaling, scaling_result
from .serve import (PEAK_NOISE_BUDGET, measure_steady_state,
                    steady_state_result)
from .serving import measure_serving, serving_result
from .stats import (best_inner_us, int_histogram, latency_summary,
                    percentile, sorted_latencies, summarize_times)
from .sweep import (MeasuredNinjaGap, measure_ninja_sweep, measured_gaps,
                    sweep_detail_result, sweep_gap_result)
from .profile import (ProfileLine, format_profile, hotspot, profile_trace)
from .report import format_table, ladder_bars, stacked_bars
from .scenarios import SCENARIOS, ScenarioResult, run_scenario

__all__ = [
    "ExperimentResult", "EXPERIMENTS", "run_experiment", "run_all",
    "table1", "fig4", "fig5", "fig6", "table2", "fig8", "ninja_gap",
    "ninja_gaps", "ninja_table", "GAP_KERNELS",
    "format_table", "stacked_bars", "ladder_bars",
    "TimedRun", "time_run",
    "measure_parallel_speedup", "measure_pool_crossover",
    "parallel_speedup_result",
    "kernel_record", "ratio_of", "timing_fields",
    "MeasuredNinjaGap", "measure_ninja_sweep", "measured_gaps",
    "sweep_gap_result", "sweep_detail_result",
    "measure_scaling", "scaling_result",
    "measure_dse", "dse_result",
    "measure_greeks", "greeks_result",
    "PEAK_NOISE_BUDGET", "measure_steady_state", "steady_state_result",
    "measure_serving", "serving_result",
    "percentile", "sorted_latencies", "summarize_times",
    "latency_summary", "best_inner_us", "int_histogram",
    "profile_trace", "hotspot", "format_profile", "ProfileLine",
    "SCENARIOS", "ScenarioResult", "run_scenario",
    "render", "to_json", "to_csv", "from_json", "FORMATS",
]
