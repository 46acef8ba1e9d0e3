"""Ablations of two design choices DESIGN.md calls out.

* **Governor x QoS** (section 6.2's System-B observation): on a
  time-fixed workload, a lower application duty cycle gives the
  *hardware* more chances to drop to a lower-power state under the
  default ondemand governor.  The Pi video workload runs at the
  energy_saver and full_throttle QoS under both the ondemand and the
  performance governor; the expected shape is that ondemand amplifies
  the application-level saving relative to a pinned frequency.
* **E3 sleep intervals**: the paper chose 1000/250/0 ms for
  overheating/hot/safe.  Sweeping the hot-mode sleep should push the
  plateau temperature down monotonically, and with every interval at
  0 ms the ENT run should degenerate to the plain-Java trace.

Both run fixed seeds and serially: the sweep swaps
:data:`~repro.workloads.base.E3_SLEEP_MS` in place for each run and
restores it afterwards, which a process pool would not see.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.eval.runner import TraceResult, run_e3_episode
from repro.platform.systems import make_platform
from repro.workloads.base import E3_SLEEP_MS, ES, FT, HOT, OVERHEATING
from repro.workloads.registry import get_workload

__all__ = ["GovernorRow", "SleepAblation", "ablation_e3_sleep",
           "ablation_governor"]

GOVERNORS = ("ondemand", "performance")

#: Hot-mode sleep intervals (ms) swept with overheating at 1000 ms.
HOT_SLEEPS_MS = (0.0, 125.0, 250.0, 500.0)

#: The E3 sweep's benchmark and episode length.
SLEEP_BENCHMARK, SLEEP_UNITS = "findbugs", 160


@dataclass
class GovernorRow:
    governor: str
    #: QoS mode -> energy (J) of one large video task.
    energy_j: Dict[str, float]

    @property
    def percent_saved(self) -> float:
        """energy_saver's saving over full_throttle, in percent."""
        return 100 * (1.0 - self.energy_j[ES] / self.energy_j[FT])


def _video_energy(qos_mode: str, governor: str) -> float:
    workload = get_workload("video")
    platform = make_platform("B", seed=1, governor=governor)
    workload.execute(platform, workload.task_size(FT),
                     workload.qos_value(qos_mode), seed=1)
    return platform.energy_total_j()


def ablation_governor() -> List[GovernorRow]:
    return [GovernorRow(governor, {qos: _video_energy(qos, governor)
                                   for qos in (ES, FT)})
            for governor in GOVERNORS]


@dataclass
class SleepAblation:
    #: Hot-mode sleep (ms) -> ENT trace, overheating at 1000 ms.
    sweep: Dict[float, TraceResult]
    #: ENT with every interval at 0 ms, and the plain-Java run.
    zero_sleeps: TraceResult
    java: TraceResult


def _run_with_sleeps(hot_ms: float, overheating_ms: float) -> TraceResult:
    saved = dict(E3_SLEEP_MS)
    E3_SLEEP_MS[HOT] = hot_ms
    E3_SLEEP_MS[OVERHEATING] = overheating_ms
    try:
        return run_e3_episode(get_workload(SLEEP_BENCHMARK), "ent",
                              seed=1, units=SLEEP_UNITS)
    finally:
        E3_SLEEP_MS.update(saved)


def ablation_e3_sleep() -> SleepAblation:
    return SleepAblation(
        sweep={ms: _run_with_sleeps(ms, 1000.0) for ms in HOT_SLEEPS_MS},
        zero_sleeps=_run_with_sleeps(0.0, 0.0),
        java=run_e3_episode(get_workload(SLEEP_BENCHMARK), "java", seed=1,
                            units=SLEEP_UNITS))
