"""Plain-text renderers for every table and figure of the evaluation.

These functions turn the experiment data structures into aligned text
tables (and an ASCII rendition of the Figure 11 traces): the
``results/*.txt`` files and what ``python -m repro.eval`` prints.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence

from repro.eval.ablations import GovernorRow, SleepAblation
from repro.eval.bands import StddevBand
from repro.eval.config import (VIOLATING_COMBOS, figure6_static_rows,
                               figure7_rows)
from repro.eval.e1 import Figure8Row, Figure9Bar
from repro.eval.e2 import Figure10Row
from repro.eval.e3 import Figure11Pair, trace_stats
from repro.eval.overhead import OverheadRow
from repro.workloads.base import BATTERY_MODES, ES, FT, MG

__all__ = ["render_table", "format_figure6", "format_figure7",
           "format_figure8", "format_figure9", "format_figure10",
           "format_figure11", "format_stddev_bands",
           "format_ablation_governor", "format_ablation_e3_sleep"]


def render_table(headers: Sequence[str],
                 rows: Iterable[Sequence[str]]) -> str:
    """Align columns; the universal table printer."""
    materialized = [list(map(str, row)) for row in rows]
    widths = [len(h) for h in headers]
    for row in materialized:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    def line(cells):
        return "  ".join(cell.ljust(width)
                         for cell, width in zip(cells, widths)).rstrip()
    out = [line(headers), line("-" * w for w in widths)]
    out.extend(line(row) for row in materialized)
    return "\n".join(out)


def format_figure7() -> str:
    headers = ["name", "workload attribution", "energy_saver", "managed",
               "full_throttle", "QoS adjustment", "energy_saver",
               "default (managed)", "full_throttle"]
    rows = [[r["name"], r["workload"], r["workload_es"], r["workload_mg"],
             r["workload_ft"], r["qos"], r["qos_es"], r["qos_mg"],
             r["qos_ft"]] for r in figure7_rows()]
    return "Figure 7: ENT Benchmark Settings\n" + render_table(headers,
                                                               rows)


def format_figure6(rows: List[OverheadRow]) -> str:
    headers = ["name", "description", "System", "CLOC", "ENT Changes",
               "% Energy Overhead"]
    body = [[r.benchmark, r.description, r.systems, r.cloc, r.ent_changes,
             f"{r.overhead_percent:+.2f}%"] for r in rows]
    return ("Figure 6: ENT benchmark descriptions and statistics\n"
            + render_table(headers, body))


def format_figure8(rows: List[Figure8Row]) -> str:
    headers = ["benchmark", "workload", "boot", "ENT (J)", "silent (J)",
               "exception"]
    body = []
    for row in rows:
        for workload_mode in BATTERY_MODES:
            for boot in (FT, MG, ES):
                ent = row.energy(boot, workload_mode, False)
                silent = row.energy(boot, workload_mode, True)
                thrown = row.exception_thrown(boot, workload_mode)
                body.append([row.benchmark, workload_mode, boot,
                             f"{ent:.1f}", f"{silent:.1f}",
                             "EnergyException" if thrown else ""])
    return ("Figure 8: System A Battery-Exception (E1) runs\n"
            + render_table(headers, body))


def format_figure9(bars: List[Figure9Bar]) -> str:
    headers = ["system", "benchmark", "boot/workload", "ENT (norm)",
               "silent (norm)", "% saved"]
    body = [[bar.system, bar.benchmark,
             f"{bar.boot_mode}/{bar.workload_mode}",
             f"{bar.ent_normalized:.3f}", f"{bar.silent_normalized:.3f}",
             f"{bar.percent_saved:.2f}"] for bar in bars]
    return ("Figure 9: E1 normalized energy over boot/workload "
            "combinations that throw EnergyException\n"
            + render_table(headers, body))


def format_figure10(rows: List[Figure10Row]) -> str:
    headers = ["system", "benchmark", "E(es) J", "E(mg) J", "E(ft) J",
               "es % saved", "mg % saved"]
    body = [[row.system, row.benchmark,
             f"{row.energy_j[ES]:.1f}", f"{row.energy_j[MG]:.1f}",
             f"{row.energy_j[FT]:.1f}",
             f"{row.percent_saved(ES):.2f}",
             f"{row.percent_saved(MG):.2f}"] for row in rows]
    return ("Figure 10: Battery-Casing (E2) runs, normalized against "
            "the full_throttle boot\n" + render_table(headers, body))


def _ascii_trace(pair: Figure11Pair, width: int = 64,
                 lo: float = 35.0, hi: float = 75.0) -> List[str]:
    """Two sparkline rows of temperatures resampled over the run."""
    def resample(trace):
        if not trace:
            return [lo] * width
        samples = []
        for i in range(width):
            target = i / (width - 1)
            best = min(trace, key=lambda p: abs(p[0] - target))
            samples.append(best[1])
        return samples

    glyphs = " .:-=+*#%@"

    def row(samples):
        out = []
        for temp in samples:
            frac = max(0.0, min(1.0, (temp - lo) / (hi - lo)))
            out.append(glyphs[int(frac * (len(glyphs) - 1))])
        return "".join(out)

    return [f"  ent  |{row(resample(pair.ent.trace))}|",
            f"  java |{row(resample(pair.java.trace))}|"]


def format_figure11(pairs: List[Figure11Pair]) -> str:
    lines = ["Figure 11: System A Temperature-Casing (E3) runs "
             "(temperature vs normalized time; scale 35-75C)"]
    for pair in pairs:
        ent_stats = trace_stats(pair.ent)
        java_stats = trace_stats(pair.java)
        lines.append(
            f"{pair.benchmark}: ent tail {ent_stats['tail_mean_c']:.1f}C "
            f"(peak {ent_stats['peak_c']:.1f}), java tail "
            f"{java_stats['tail_mean_c']:.1f}C "
            f"(peak {java_stats['peak_c']:.1f}), "
            f"{pair.ent.sleeps} sleeps")
        lines.extend(_ascii_trace(pair))
    return "\n".join(lines)


def format_stddev_bands(bands: List[StddevBand]) -> str:
    body = [[band.system, band.benchmark,
             f"{len(band.energies_j)} of "
             f"{len(band.energies_j) + band.discarded_first}",
             f"{band.rel_std * 100:.2f}%"] for band in bands]
    summary = []
    for system in dict.fromkeys(band.system for band in bands):
        devs = [band.rel_std for band in bands if band.system == system]
        summary.append([system, len(devs)]
                       + [sum(dev <= limit for dev in devs)
                          for limit in (0.02, 0.03, 0.05)]
                       + [f"{max(devs) * 100:.2f}%"])
    return ("Run-to-run relative standard deviation (section 5 bands)\n"
            + render_table(["system", "benchmark", "runs kept",
                            "rel. std dev"], body)
            + "\n\n"
            + render_table(["system", "pairs", "within 2%", "within 3%",
                            "within 5%", "max"], summary))


def format_ablation_governor(rows: List[GovernorRow]) -> str:
    lines = ["Ablation: governor x QoS on Pi video (energy in J)"]
    for row in rows:
        lines.append(f"  {row.governor:12s} es={row.energy_j[ES]:8.1f} "
                     f"ft={row.energy_j[FT]:8.1f} "
                     f"saving={row.percent_saved:5.2f}%")
    return "\n".join(lines)


def format_ablation_e3_sleep(ablation: SleepAblation) -> str:
    lines = ["Ablation: E3 hot-mode sleep interval vs plateau"]
    for ms, trace in ablation.sweep.items():
        stats = trace_stats(trace)
        lines.append(f"  hot_sleep={ms:6.0f}ms  "
                     f"tail={stats['tail_mean_c']:5.1f}C  "
                     f"peak={stats['peak_c']:5.1f}C")
    return "\n".join(lines)
