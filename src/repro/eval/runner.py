"""Experiment episode runners: the ENT programs behind E1/E2/E3.

Each episode assembles the paper's program structure out of embedded-ENT
classes:

* **E1 (battery-exception)** — a dynamic ``Agent`` whose attributor reads
  the battery picks the boot mode; the input is wrapped in a dynamic
  ``Task`` whose attributor classifies its size (Figure 7's workload
  attribution); the bounded snapshot ``snapshot task [_, agent-mode]``
  throws ``EnergyException`` when the workload mode exceeds the boot
  mode, and the handler falls back to a *statically* ``energy_saver``
  processor (allowed by the waterfall: es <= boot) running the Figure 7
  energy_saver QoS.  The "silent" variant suppresses the exception,
  modelling the absence of ENT's runtime (Figure 8/9's lighter bars).

* **E2 (battery-casing)** — the boot mode eliminates a mode case that
  selects the QoS knob; the large workload is processed at that QoS
  (Figure 10).

* **E3 (temperature-casing)** — between units of work, a dynamic
  ``Sleeper`` attributed by CPU temperature is snapshotted and its
  mode-cased interval slept, duty-cycling the CPU around the thermal
  thresholds (Figure 11); the plain-Java variant never sleeps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.errors import EnergyException
from repro.eval.parallel import EpisodeTask, run_episodes
from repro.obs.tracer import NULL_TRACER
from repro.platform.systems import Platform, make_platform
from repro.runtime.embedded import EntRuntime
from repro.workloads.base import (BOOT_BATTERY_LEVELS, E3_SLEEP_MS, ES, FT,
                                  MG, TaskResult, Workload,
                                  battery_boot_mode, mode_leq,
                                  temperature_boot_mode)

__all__ = ["EpisodeResult", "TraceResult", "run_e1_episode",
           "run_e2_episode", "run_e3_episode", "repeated_energies"]


@dataclass
class EpisodeResult:
    benchmark: str
    system: str
    boot_mode: str
    workload_mode: str
    qos_mode: str
    silent: bool
    energy_j: float
    duration_s: float
    exception_raised: bool
    task: Optional[TaskResult] = None

    @property
    def violating(self) -> bool:
        """Did this combo violate the waterfall (workload ≰ boot)?

        Derived from the declared battery lattice (not a hard-coded
        rank table), so classification cannot drift from the
        ``modes {}`` declaration the runtime itself checks against.
        """
        return not mode_leq(self.workload_mode, self.boot_mode)


@dataclass
class TraceResult:
    benchmark: str
    variant: str  # "ent" or "java"
    #: (normalized time 0..1, temperature C) samples.
    trace: List[Tuple[float, float]] = field(default_factory=list)
    energy_j: float = 0.0
    duration_s: float = 0.0
    sleeps: int = 0


def _scaled_size(workload: Workload, workload_mode: str,
                 system: str) -> float:
    scale = getattr(workload, "system_scale", None)
    factor = scale(system) if scale is not None else 1.0
    return workload.task_size(workload_mode) * factor


def _build_app(workload: Workload, rt: EntRuntime, system: str):
    """The E1/E2 program skeleton: Agent + Task + degraded processor."""

    @rt.dynamic
    class Agent:
        """The entry object; its attributor reads the battery."""

        def attributor(self):
            return battery_boot_mode(rt.ext.battery())

        def run(self, task, qos_mode: str) -> TaskResult:
            return task.process(qos_mode)

    @rt.dynamic
    class Task:
        """Wraps one input; attributed by the Figure 7 size thresholds."""

        def __init__(self, workload_mode: str) -> None:
            self.logical_size = workload.task_size(workload_mode)
            self.scaled_size = _scaled_size(workload, workload_mode,
                                            system)

        def attributor(self):
            return workload.attribute(self.logical_size)

        def process(self, qos_mode: str) -> TaskResult:
            return workload.execute(rt.platform, self.scaled_size,
                                    workload.qos_value(qos_mode))

    @rt.static(ES)
    class DegradedProcessor:
        """The recovery path: statically energy_saver, so the waterfall
        admits it under any boot mode; runs the es QoS knob."""

        def process(self, scaled_size: float) -> TaskResult:
            return workload.execute(rt.platform, scaled_size,
                                    workload.qos_value(ES))

    return Agent, Task, DegradedProcessor


def run_e1_episode(workload: Workload, system: str, boot_mode: str,
                   workload_mode: str, silent: bool = False,
                   seed: int = 0, tracer=None,
                   profiler=None) -> EpisodeResult:
    """One battery-exception run (one bar of Figure 8)."""
    tracer = tracer if tracer is not None else NULL_TRACER
    platform = make_platform(
        system, seed=seed,
        battery_fraction=BOOT_BATTERY_LEVELS[boot_mode])
    rt = EntRuntime.standard(platform, silent=silent, tracer=tracer,
                             profiler=profiler)
    Agent, Task, DegradedProcessor = _build_app(workload, rt, system)
    meter = platform.meter()
    meter.begin()
    start = platform.now()
    exception_raised = False
    qos_mode = workload.default_qos_mode()
    task_result: Optional[TaskResult] = None
    with tracer.span(f"e1:{workload.name}", category="episode",
                     system=system, boot_mode=boot_mode,
                     workload_mode=workload_mode, silent=silent):
        with tracer.span("snapshot-agent", category="phase"):
            agent = rt.snapshot(Agent())
        with rt.booted(agent):
            task = Task(workload_mode)
            try:
                with tracer.span("process", category="phase"):
                    snapped = rt.snapshot(task, upper=rt.mode_of(agent))
                    task_result = agent.run(snapped, qos_mode)
            except EnergyException:
                exception_raised = True
                qos_mode = ES
                with tracer.span("degraded", category="phase"):
                    degraded = DegradedProcessor()
                    task_result = degraded.process(task.scaled_size)
    return EpisodeResult(
        benchmark=workload.name, system=system, boot_mode=boot_mode,
        workload_mode=workload_mode, qos_mode=qos_mode, silent=silent,
        energy_j=meter.end(), duration_s=platform.now() - start,
        exception_raised=exception_raised, task=task_result)


def run_e2_episode(workload: Workload, system: str, boot_mode: str,
                   workload_mode: str = FT,
                   seed: int = 0, tracer=None,
                   profiler=None) -> EpisodeResult:
    """One battery-casing run (one bar of Figure 10): the boot mode
    eliminates a mode case selecting the QoS level."""
    tracer = tracer if tracer is not None else NULL_TRACER
    platform = make_platform(
        system, seed=seed,
        battery_fraction=BOOT_BATTERY_LEVELS[boot_mode])
    rt = EntRuntime.standard(platform, tracer=tracer, profiler=profiler)
    Agent, Task, _ = _build_app(workload, rt, system)
    # The QoS selector: a mode case eliminated on the agent's mode
    # (identity over mode names — each boot mode selects its QoS row).
    qos_case = rt.mcase({ES: ES, MG: MG, FT: FT})
    meter = platform.meter()
    meter.begin()
    start = platform.now()
    with tracer.span(f"e2:{workload.name}", category="episode",
                     system=system, boot_mode=boot_mode,
                     workload_mode=workload_mode):
        agent = rt.snapshot(Agent())
        qos_mode = qos_case.for_object(agent)
        with rt.booted(agent):
            size = _scaled_size(workload, workload_mode, system)
            with tracer.span("process", category="phase",
                             qos_mode=qos_mode):
                task_result = workload.execute(
                    platform, size, workload.qos_value(qos_mode))
    return EpisodeResult(
        benchmark=workload.name, system=system, boot_mode=boot_mode,
        workload_mode=workload_mode, qos_mode=qos_mode, silent=False,
        energy_j=meter.end(), duration_s=platform.now() - start,
        exception_raised=False, task=task_result)


def run_e3_episode(workload: Workload, variant: str = "ent",
                   seed: int = 0,
                   units: Optional[int] = None,
                   tracer=None,
                   profiler=None,
                   platform: Optional[Platform] = None) -> TraceResult:
    """One temperature-casing run (one curve of Figure 11), System A.

    ``platform`` may be a pre-built (possibly pre-advanced) System-A
    platform — e.g. one that already ran warm-up work; the trace is
    normalized against the episode's own start time, not the
    simulation-clock zero.
    """
    if not workload.supports_temperature:
        raise ValueError(
            f"{workload.name} has no unit-of-work decomposition for E3")
    if variant not in ("ent", "java"):
        raise ValueError(f"unknown E3 variant {variant!r}")
    tracer = tracer if tracer is not None else NULL_TRACER
    if platform is None:
        platform = make_platform("A", seed=seed)
    rt = EntRuntime.thermal(platform, tracer=tracer, profiler=profiler)

    @rt.dynamic
    class Sleeper:
        """The dedicated Sleep object regulating CPU cool-down."""

        interval_ms = rt.mcase({name: ms for name, ms in E3_SLEEP_MS.items()})

        def attributor(self):
            return temperature_boot_mode(rt.ext.temperature())

    meter = platform.meter()
    meter.begin()
    start = platform.now()
    sleeper = Sleeper()
    sleeps = 0
    count = units if units is not None else workload.e3_units
    qos = workload.qos_value(FT)  # large dataset stresses the CPU
    with tracer.span(f"e3:{workload.name}", category="episode",
                     variant=variant, units=count):
        for index in range(count):
            with tracer.span("work-unit", category="phase", index=index):
                workload.execute_unit(platform, qos, seed=seed + index)
            if variant == "ent":
                snapped = rt.snapshot(sleeper)
                interval = snapped.interval_ms
                if interval > 0:
                    with tracer.span("cooldown", category="phase",
                                     interval_ms=interval):
                        platform.sleep(interval / 1000.0)
                    sleeps += 1
    duration = platform.now() - start
    if duration <= 0:
        duration = 1.0
    # Normalize against the episode's own window: the simulation clock
    # is not necessarily at 0 when the episode starts (warm-up work, a
    # reused platform), so both the offset and the filter are relative
    # to ``start``.
    trace = [((t - start) / duration, temp)
             for t, temp in platform.temperature_trace
             if start <= t <= start + duration]
    return TraceResult(benchmark=workload.name, variant=variant,
                       trace=trace, energy_j=meter.end(),
                       duration_s=duration, sleeps=sleeps)


def repeated_energies(run, times: int = 10,
                      discard_first: bool = True,
                      jobs: Optional[int] = None) -> List[float]:
    """Run ``run(seed)`` repeatedly, returning the retained energies.

    Mirrors the paper's data collection: 11 runs with the first
    discarded (JIT warm-up) on Systems A/B, 10 runs on System C — the
    retained count is always ``times`` (one *extra* episode is run
    when discarding, so ``times=10, discard_first=True`` runs 11 and
    keeps 10).

    ``run`` is either a callable taking a seed (always executed
    serially) or an :class:`~repro.eval.parallel.EpisodeTask`
    template, whose per-seed copies fan out across ``jobs`` workers.
    """
    total = times + 1 if discard_first else times
    if isinstance(run, EpisodeTask):
        tasks = [run.with_seed(seed) for seed in range(total)]
        results = run_episodes(tasks, jobs=jobs)
        energies = [results[task.key].energy_j for task in tasks]
    else:
        energies = [run(seed).energy_j for seed in range(total)]
    return energies[1:] if discard_first else energies
