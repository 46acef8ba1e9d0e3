"""Adaptive-execution sweeps: mode transitions over a draining battery.

The paper's running example (Listing 1) snapshots its Agent on *every
iteration* of the crawl loop, so the boot mode tracks the battery as it
drains.  This module runs that pattern against a benchmark workload and
records the mode trajectory — the adaptive behaviour the paper's
abstractions exist to enable, and a useful harness for studying how
QoS degrades across a whole discharge cycle.

One drain run is inherently sequential (each iteration depends on the
battery state the previous one left behind), but a *sweep* of runs
across benchmarks and systems is embarrassingly parallel:
:func:`drain_sweep` enumerates the runs as picklable task descriptors
and fans them out through :mod:`repro.eval.parallel`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.eval.parallel import EpisodeTask, run_episodes
from repro.obs.tracer import NULL_TRACER
from repro.platform.systems import make_platform
from repro.runtime.embedded import EntRuntime
from repro.workloads.base import ES, Workload, battery_boot_mode, mode_leq
from repro.workloads.registry import get_workload

__all__ = ["DrainStep", "DrainRun", "battery_drain_run", "drain_sweep"]


@dataclass
class DrainStep:
    """One iteration of the adaptive loop."""

    index: int
    battery_before: float
    boot_mode: str
    qos_mode: str
    energy_j: float
    duration_s: float


@dataclass
class DrainRun:
    benchmark: str
    system: str
    steps: List[DrainStep] = field(default_factory=list)

    @property
    def mode_trajectory(self) -> List[str]:
        return [step.boot_mode for step in self.steps]

    @property
    def transitions(self) -> List[int]:
        """Step indices where the boot mode changed."""
        out = []
        for i in range(1, len(self.steps)):
            if self.steps[i].boot_mode != self.steps[i - 1].boot_mode:
                out.append(i)
        return out

    def monotone_downward(self) -> bool:
        """A draining battery must never *raise* the boot mode.

        Compared in the declared battery lattice (``mode_leq``), not a
        hard-coded rank table, so the check tracks the ``modes {}``
        declaration the runtime enforces.
        """
        modes = self.mode_trajectory
        return all(mode_leq(later, earlier)
                   for earlier, later in zip(modes, modes[1:]))

    @property
    def total_energy_j(self) -> float:
        return sum(step.energy_j for step in self.steps)


def battery_drain_run(benchmark: str = "jspider", system: str = "A",
                      iterations: int = 40,
                      battery_scale: float = 1.0,
                      start_fraction: float = 1.0,
                      workload_mode: str = ES,
                      seed: int = 0,
                      tracer=None, profiler=None) -> DrainRun:
    """Run an adaptive loop over a draining battery.

    Each iteration re-snapshots the Agent (its attributor reads the
    live battery level), eliminates the QoS mode case on the boot mode,
    and processes one unit of the workload at that QoS.
    ``battery_scale`` shrinks the battery so a full discharge fits in
    ``iterations`` (1.0 = the platform's real capacity); it must be
    positive, like any battery capacity.
    """
    tracer = tracer if tracer is not None else NULL_TRACER
    workload: Workload = get_workload(benchmark)
    platform = make_platform(system)
    platform.reset(seed, start_fraction, battery_scale)
    rt = EntRuntime.standard(platform, tracer=tracer, profiler=profiler)

    @rt.dynamic
    class Agent:
        def attributor(self):
            return battery_boot_mode(rt.ext.battery())

    qos_case = rt.mcase({"energy_saver": "energy_saver",
                         "managed": "managed",
                         "full_throttle": "full_throttle"})
    run = DrainRun(benchmark=benchmark, system=system)
    size = workload.task_size(workload_mode)
    scale = getattr(workload, "system_scale", None)
    if scale is not None:
        size *= scale(system)
    with tracer.span(f"drain:{benchmark}", category="episode",
                     system=system, iterations=iterations):
        for index in range(iterations):
            battery_before = platform.battery_fraction()
            if platform.battery.empty:
                break
            # Listing 1's pattern: re-snapshot the agent each iteration
            # (eager copies after the first — the lazy-copy metadata
            # keeps this cheap).
            agent = rt.snapshot(Agent())
            qos_mode = qos_case.for_object(agent)
            meter = platform.meter()
            meter.begin()
            start = platform.now()
            with rt.booted(agent):
                workload.execute(platform, size,
                                 workload.qos_value(qos_mode),
                                 seed=seed + index)
            run.steps.append(DrainStep(
                index=index, battery_before=battery_before,
                boot_mode=rt.mode_of(agent).name, qos_mode=qos_mode,
                energy_j=meter.end(),
                duration_s=platform.now() - start))
    return run


def drain_sweep(benchmarks: Iterable[str],
                systems: Sequence[str] = ("A",),
                iterations: int = 40,
                battery_scale: float = 1.0,
                start_fraction: float = 1.0,
                workload_mode: str = ES,
                seed: int = 0,
                jobs: Optional[int] = None,
                tracer=None, profiler=None) -> List[DrainRun]:
    """Run one drain per (benchmark, system), fanned out over ``jobs``.

    Returns the runs in (benchmark, system) enumeration order —
    independent of worker completion order, and bit-identical to
    calling :func:`battery_drain_run` serially with the same
    arguments.
    """
    keys: List[Tuple[str, str]] = [(name, system)
                                   for name in benchmarks
                                   for system in systems]
    tasks = [EpisodeTask(
        kind="drain", key=key, benchmark=key[0],
        params=dict(system=key[1], iterations=iterations,
                    battery_scale=battery_scale,
                    start_fraction=start_fraction,
                    workload_mode=workload_mode, seed=seed))
        for key in keys]
    results = run_episodes(tasks, jobs=jobs, tracer=tracer,
                           profiler=profiler)
    return [results[key] for key in keys]
