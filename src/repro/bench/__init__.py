"""Benchmark harness: experiment registry (one per paper table/figure),
Ninja-gap computation, text reporting and the measured studies (their
runner table lives in :mod:`.suite`, loaded only by the CLI)."""

from .export import FORMATS, from_json, render, to_csv, to_json
from .experiments import (EXPERIMENTS, ExperimentResult, fig4, fig5, fig6,
                          fig8, ninja_gap, run_all, run_experiment, table1,
                          table2)
from .dse import dse_result, measure_dse
from .harness import (TimedRun, measure_pool_crossover, time_run,
                      timing_fields)
from .ninja import GAP_KERNELS, ninja_gaps, ninja_table
from .scaling_measured import measure_scaling, scaling_result
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
    "TimedRun", "time_run", "timing_fields", "measure_pool_crossover",
    "MeasuredNinjaGap", "measure_ninja_sweep", "measured_gaps",
    "sweep_gap_result", "sweep_detail_result",
    "measure_scaling", "scaling_result",
    "measure_dse", "dse_result",
    "measure_serving", "serving_result",
    "percentile", "sorted_latencies", "summarize_times",
    "latency_summary", "best_inner_us", "int_histogram",
    "profile_trace", "hotspot", "format_profile", "ProfileLine",
    "SCENARIOS", "ScenarioResult", "run_scenario",
    "render", "to_json", "to_csv", "from_json", "FORMATS",
]
