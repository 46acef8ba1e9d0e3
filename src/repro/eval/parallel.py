"""Process-pool episode executor: fan out E1/E2/E3 grids across cores.

The evaluation's hot path is hundreds of independent simulated episodes
(every bar of Figures 8-11 and every run of a drain sweep constructs
its own :class:`~repro.platform.systems.Platform` and
:class:`~repro.runtime.embedded.EntRuntime`), so the grids are
embarrassingly parallel.  This module makes that parallelism available
without giving up the serial harness's two guarantees:

* **Determinism** — every episode is described by a picklable
  :class:`EpisodeTask` carrying its own seed; the worker rebuilds the
  workload from the registry and runs exactly the code the serial path
  runs.  Results are keyed by ``task.key`` and reassembled in the
  caller's enumeration order, so aggregation is independent of worker
  completion order and ``jobs=N`` output is bit-identical to serial.
* **Observability** — each worker records into its own bounded
  :class:`~repro.obs.tracer.Tracer` ring; the parent merges the
  per-worker rings into its own tracer in task-submission order (each
  episode's clock starts at its platform's zero, exactly as in a serial
  run that rebinds the tracer per episode), so ``repro obs report``
  works unchanged under fan-out.

``jobs`` means what it means everywhere (see :mod:`repro.core.pool`,
whose :func:`~repro.core.pool.run_keyed` runs the pool); the default,
``None``, is serial in-process execution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Dict, Iterable, Optional, Tuple

from repro.core.pool import resolve_jobs, run_keyed
from repro.obs.prof import NULL_PROFILER, Profiler
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.workloads.registry import get_workload

__all__ = ["EpisodeTask", "run_episodes", "resolve_jobs", "TASK_KINDS"]

#: Episode kinds the executor knows how to run.
TASK_KINDS = ("e1", "e2", "e3", "drain")


@dataclass
class EpisodeTask:
    """A picklable description of one episode.

    ``key`` is the caller's aggregation key (any hashable tuple; must
    be unique within one :func:`run_episodes` call), ``benchmark`` the
    registry name of the workload, and ``params`` the keyword arguments
    of the episode runner (``seed`` included — seeding is explicit so
    fan-out cannot perturb it).
    """

    kind: str
    key: Tuple
    benchmark: str
    params: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in TASK_KINDS:
            raise ValueError(f"unknown episode kind {self.kind!r} "
                             f"(expected one of {TASK_KINDS})")

    def with_seed(self, seed: int) -> "EpisodeTask":
        """A copy of this task pinned to ``seed`` (key extended too)."""
        params = dict(self.params)
        params["seed"] = seed
        return EpisodeTask(kind=self.kind, key=tuple(self.key) + (seed,),
                           benchmark=self.benchmark, params=params)


def _run_one(task: EpisodeTask, tracer, profiler=NULL_PROFILER) -> object:
    """Run one task in-process (the serial path and the worker body)."""
    # Imported lazily: repro.eval.runner/sweeps import nothing from this
    # module at top level, but keeping the edge one-directional at import
    # time avoids package-init cycles.
    from repro.eval import runner, sweeps

    if task.kind == "drain":
        return sweeps.battery_drain_run(task.benchmark, tracer=tracer,
                                        profiler=profiler, **task.params)
    workload = get_workload(task.benchmark)
    if task.kind == "e1":
        return runner.run_e1_episode(workload, tracer=tracer,
                                     profiler=profiler, **task.params)
    if task.kind == "e2":
        return runner.run_e2_episode(workload, tracer=tracer,
                                     profiler=profiler, **task.params)
    return runner.run_e3_episode(workload, tracer=tracer,
                                 profiler=profiler, **task.params)


def _pool_worker(task: EpisodeTask, trace_capacity: Optional[int],
                 profile: bool = False) -> Tuple:
    """Worker entry point: run the task, return
    ``(result, events, dropped, profile)``.

    Must stay module-level so the pool can pickle it.  The worker's
    tracer ring travels back as a plain event list (events carry only
    JSON-serializable fields, so they pickle cheaply); its profile is a
    :class:`~repro.obs.prof.Profile` of plain dicts, which the parent
    folds in with :meth:`~repro.obs.prof.Profile.merge`.
    """
    profiler = Profiler("embedded") if profile else NULL_PROFILER
    if trace_capacity is not None:
        tracer = Tracer(capacity=trace_capacity)
        result = _run_one(task, tracer, profiler)
        events, dropped = tracer.events(), tracer.dropped
    else:
        result = _run_one(task, NULL_TRACER, profiler)
        events, dropped = [], 0
    if profile:
        profiler.finish()
        return result, events, dropped, profiler.profile
    return result, events, dropped, None


def run_episodes(tasks: Iterable[EpisodeTask],
                 jobs: Optional[int] = None,
                 tracer=None,
                 profiler=None,
                 trace_capacity: int = 65536) -> Dict[Tuple, object]:
    """Run every task, returning ``{task.key: result}``.

    Serial (``jobs`` None/1) runs tasks in submission order in-process,
    sharing ``tracer`` and ``profiler`` directly.  Parallel submits
    them to a process pool and reassembles results *by key in
    submission order*, merging each worker's tracer ring into
    ``tracer`` at the same point the serial run would have emitted it —
    so both the result mapping and the merged event stream are
    identical to the serial run's.  Worker check/call counts are folded
    into ``profiler`` the same way; profile merging is commutative
    keyed aggregation, so the totals are independent of both worker
    scheduling and merge order.
    """
    tracer = tracer if tracer is not None else NULL_TRACER
    profiler = profiler if profiler is not None else NULL_PROFILER
    tasks = list(tasks)
    keys = [task.key for task in tasks]
    if len(set(keys)) != len(keys):
        raise ValueError("duplicate EpisodeTask keys in one batch")
    if resolve_jobs(jobs) <= 1 or len(tasks) <= 1:
        results = {task.key: _run_one(task, tracer, profiler)
                   for task in tasks}
        # Fold the profile, as each pool worker does for its own.
        profiler.finish()
        return results
    capacity = trace_capacity if tracer.enabled else None
    worker = partial(_pool_worker, trace_capacity=capacity,
                     profile=profiler.enabled)
    results: Dict[Tuple, object] = {}
    # Sorted by task index: the merged trace is the serial run's.
    for index, (result, events, dropped, profile) in sorted(
            run_keyed(worker, tasks, jobs)):
        results[keys[index]] = result
        if tracer.enabled:
            for event in events:
                tracer.emit(event)
            tracer.dropped += dropped
        if profile is not None and profiler.enabled:
            profiler.profile.merge(profile)
    return results
