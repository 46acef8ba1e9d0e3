"""Experiment harnesses reproducing every table and figure (Figs 6-11),
section 5's run-to-run deviation bands and two ablations."""

from repro.eval.ablations import ablation_e3_sleep, ablation_governor
from repro.eval.bands import stddev_bands
from repro.eval.config import (ALL_COMBOS, VIOLATING_COMBOS, e1_benchmarks,
                               e2_benchmarks, e3_benchmarks,
                               figure6_static_rows, figure7_rows)
from repro.eval.e1 import Figure8Row, Figure9Bar, figure8, figure9
from repro.eval.e2 import Figure10Row, figure10
from repro.eval.e3 import Figure11Pair, figure11, trace_stats
from repro.eval.overhead import OverheadRow, figure6, measure_overhead
from repro.eval.parallel import (EpisodeTask, resolve_jobs, run_episodes)
from repro.eval.report import (format_ablation_e3_sleep,
                               format_ablation_governor, format_figure6,
                               format_figure7, format_figure8,
                               format_figure9, format_figure10,
                               format_figure11, format_stddev_bands,
                               render_table)
from repro.eval.runner import (EpisodeResult, TraceResult,
                               repeated_energies, run_e1_episode,
                               run_e2_episode, run_e3_episode)
from repro.eval.sweeps import (DrainRun, DrainStep, battery_drain_run,
                               drain_sweep)

__all__ = [
    "ALL_COMBOS",
    "DrainRun",
    "DrainStep",
    "EpisodeResult",
    "EpisodeTask",
    "battery_drain_run",
    "drain_sweep",
    "Figure10Row",
    "Figure11Pair",
    "Figure8Row",
    "Figure9Bar",
    "OverheadRow",
    "TraceResult",
    "VIOLATING_COMBOS",
    "ablation_e3_sleep",
    "ablation_governor",
    "e1_benchmarks",
    "e2_benchmarks",
    "e3_benchmarks",
    "figure10",
    "figure11",
    "figure6",
    "figure6_static_rows",
    "figure7_rows",
    "figure8",
    "figure9",
    "format_ablation_e3_sleep",
    "format_ablation_governor",
    "format_figure10",
    "format_figure11",
    "format_figure6",
    "format_figure7",
    "format_figure8",
    "format_figure9",
    "format_stddev_bands",
    "measure_overhead",
    "render_table",
    "repeated_energies",
    "resolve_jobs",
    "run_episodes",
    "run_e1_episode",
    "run_e2_episode",
    "run_e3_episode",
    "stddev_bands",
    "trace_stats",
]
