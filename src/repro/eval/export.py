"""Every ``results/`` artifact, defined once.

:data:`ARTIFACTS` is the one table of what the evaluation publishes:
Figures 6-11, section 5's run-to-run deviation bands and two
ablations.  Each row names an artifact and gives the function that
computes it plus its JSON and text renderers.  ``python -m repro.eval
export`` writes ``<name>.json`` and ``<name>.txt`` for every row (the
paper ships raw data as supplemental material — this is our
equivalent), and ``all`` and the per-figure commands of ``python -m
repro.eval`` print the same text.  Everything but figure6, whose
overheads are wall-clock measurements, is deterministic, and CI diffs
it against the committed ``results/`` byte for byte.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.eval.ablations import (GovernorRow, SleepAblation,
                                  ablation_e3_sleep, ablation_governor)
from repro.eval.bands import (BAND_BOOT, BAND_WORKLOAD, StddevBand,
                              stddev_bands)
from repro.eval.config import e3_benchmarks, figure7_rows
from repro.eval.e1 import Figure8Row, Figure9Bar, figure8, figure9
from repro.eval.e2 import Figure10Row, figure10
from repro.eval.e3 import Figure11Pair, figure11, trace_stats
from repro.eval.overhead import OverheadRow, figure6
from repro.eval.report import (format_ablation_e3_sleep,
                               format_ablation_governor, format_figure6,
                               format_figure7, format_figure8,
                               format_figure9, format_figure10,
                               format_figure11, format_stddev_bands)
from repro.workloads.base import BATTERY_MODES
from repro.workloads.registry import ALL_WORKLOADS

__all__ = ["ARTIFACTS", "Artifact", "export_all"]


@dataclass(frozen=True)
class Artifact:
    """One ``results/`` artifact."""

    name: str
    #: ``compute(seed, jobs, tracer, benchmarks)`` -> the artifact's
    #: data.  ``jobs`` fans episode grids out over a process pool,
    #: bit-identical to serial; ``benchmarks`` restricts the rows.
    #: Rows that have no use for an argument ignore it.
    compute: Callable[..., object]
    to_json: Callable[[object], object]
    to_text: Callable[[object], str]
    #: The ``--benchmarks`` choices, when the rows can be restricted.
    benchmarks: Optional[Sequence[str]] = None


def _figure6_json(rows: List[OverheadRow]) -> object:
    return [{
        "benchmark": row.benchmark,
        "description": row.description,
        "systems": row.systems,
        "cloc": row.cloc,
        "ent_changes": row.ent_changes,
        "overhead_percent": round(row.overhead_percent, 4),
        "mechanism_counts": row.counts,
    } for row in rows]


def _figure8_json(rows: List[Figure8Row]) -> object:
    return [{
        "benchmark": row.benchmark,
        "boot_mode": boot,
        "workload_mode": workload,
        "silent": silent,
        "energy_j": round(episode.energy_j, 3),
        "duration_s": round(episode.duration_s, 3),
        "exception": episode.exception_raised,
        "qos_mode": episode.qos_mode,
    } for row in rows
        for (boot, workload, silent), episode in row.cells.items()]


def _figure9_json(bars: List[Figure9Bar]) -> object:
    return [{
        "system": bar.system,
        "benchmark": bar.benchmark,
        "boot_mode": bar.boot_mode,
        "workload_mode": bar.workload_mode,
        "ent_energy_j": round(bar.ent_energy_j, 3),
        "silent_energy_j": round(bar.silent_energy_j, 3),
        "ent_normalized": round(bar.ent_normalized, 4),
        "silent_normalized": round(bar.silent_normalized, 4),
        "percent_saved": round(bar.percent_saved, 3),
    } for bar in bars]


def _figure10_json(rows: List[Figure10Row]) -> object:
    return [{
        "system": row.system,
        "benchmark": row.benchmark,
        "energy_j": {mode: round(row.energy_j[mode], 3)
                     for mode in BATTERY_MODES},
        "percent_saved": {
            mode: round(row.percent_saved(mode), 3)
            for mode in BATTERY_MODES},
        "energy_proportional": row.energy_proportional,
    } for row in rows]


def _figure11_json(pairs: List[Figure11Pair]) -> object:
    out = []
    for pair in pairs:
        for variant, trace in (("ent", pair.ent), ("java", pair.java)):
            stats = trace_stats(trace)
            out.append({
                "benchmark": pair.benchmark,
                "variant": variant,
                "duration_s": round(trace.duration_s, 3),
                "energy_j": round(trace.energy_j, 3),
                "sleeps": trace.sleeps,
                "tail_mean_c": round(stats["tail_mean_c"], 3),
                "peak_c": round(stats["peak_c"], 3),
                # Trace decimated to ~200 points for plotting.
                "trace": _decimate(trace.trace, 200),
            })
    return out


def _decimate(points, target: int) -> List[List[float]]:
    if len(points) <= target:
        return [[round(t, 5), round(v, 3)] for t, v in points]
    step = len(points) / target
    out = []
    for index in range(target):
        t, v = points[int(index * step)]
        out.append([round(t, 5), round(v, 3)])
    out.append([round(points[-1][0], 5), round(points[-1][1], 3)])
    return out


def _stddev_bands_json(bands: List[StddevBand]) -> object:
    return [{
        "system": band.system,
        "benchmark": band.benchmark,
        "boot_mode": BAND_BOOT,
        "workload_mode": BAND_WORKLOAD,
        "discarded_first": band.discarded_first,
        "energies_j": [round(energy, 3) for energy in band.energies_j],
        "rel_std_percent": round(band.rel_std * 100, 4),
    } for band in bands]


def _ablation_governor_json(rows: List[GovernorRow]) -> object:
    return [{
        "governor": row.governor,
        "energy_j": {mode: round(joules, 3)
                     for mode, joules in row.energy_j.items()},
        "percent_saved": round(row.percent_saved, 3),
    } for row in rows]


def _trace_json(trace) -> Dict[str, object]:
    stats = trace_stats(trace)
    return {"sleeps": trace.sleeps,
            "tail_mean_c": round(stats["tail_mean_c"], 3),
            "peak_c": round(stats["peak_c"], 3)}


def _ablation_e3_sleep_json(ablation: SleepAblation) -> object:
    return {
        "sweep": [dict(hot_sleep_ms=ms, **_trace_json(trace))
                  for ms, trace in ablation.sweep.items()],
        "zero_sleeps": _trace_json(ablation.zero_sleeps),
        "java": _trace_json(ablation.java),
    }


#: Every results/ artifact, in ``all`` and ``export`` order.
ARTIFACTS: Dict[str, Artifact] = {artifact.name: artifact for artifact in (
    Artifact("figure6", lambda seed, jobs, tracer, names: figure6(seed=seed),
             _figure6_json, format_figure6),
    Artifact("figure7", lambda seed, jobs, tracer, names: figure7_rows(),
             list, lambda rows: format_figure7()),
    Artifact("figure8",
             lambda seed, jobs, tracer, names: figure8(
                 "A", seed=seed, jobs=jobs, tracer=tracer,
                 benchmarks=names),
             _figure8_json, format_figure8,
             benchmarks=[workload.name for workload in ALL_WORKLOADS]),
    Artifact("figure9",
             lambda seed, jobs, tracer, names: figure9(
                 seed=seed, jobs=jobs, tracer=tracer),
             _figure9_json, format_figure9),
    Artifact("figure10",
             lambda seed, jobs, tracer, names: figure10(
                 seed=seed, jobs=jobs, tracer=tracer),
             _figure10_json, format_figure10),
    Artifact("figure11",
             lambda seed, jobs, tracer, names: figure11(
                 seed=seed, jobs=jobs, tracer=tracer, benchmarks=names),
             _figure11_json, format_figure11, benchmarks=e3_benchmarks()),
    # The bands' seeds are the protocol's run indices, and the
    # ablations pin seed 1, so none of the three reads ``seed``.
    Artifact("stddev_bands",
             lambda seed, jobs, tracer, names: stddev_bands(jobs=jobs),
             _stddev_bands_json, format_stddev_bands),
    Artifact("ablation_governor",
             lambda seed, jobs, tracer, names: ablation_governor(),
             _ablation_governor_json, format_ablation_governor),
    Artifact("ablation_e3_sleep",
             lambda seed, jobs, tracer, names: ablation_e3_sleep(),
             _ablation_e3_sleep_json, format_ablation_e3_sleep),
)}


def export_all(directory: str = "results", seed: int = 0,
               figures: Optional[List[str]] = None,
               jobs: Optional[int] = None) -> Dict[str, Tuple[str, str]]:
    """Write ``<name>.json`` and ``<name>.txt`` for every artifact (or
    only ``figures``); returns name -> (JSON path, text path)."""
    out_dir = pathlib.Path(directory)
    out_dir.mkdir(exist_ok=True)
    written: Dict[str, Tuple[str, str]] = {}
    for name in figures if figures is not None else ARTIFACTS:
        artifact = ARTIFACTS[name]
        data = artifact.compute(seed, jobs, None, None)
        json_path = out_dir / f"{name}.json"
        text_path = out_dir / f"{name}.txt"
        json_path.write_text(json.dumps(artifact.to_json(data), indent=2)
                             + "\n")
        text_path.write_text(artifact.to_text(data) + "\n")
        written[name] = (str(json_path), str(text_path))
    return written
