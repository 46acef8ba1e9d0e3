"""Figure 6 — the per-benchmark overhead of ENT's runtime support.

The paper compares each ENT benchmark against a baseline build that
performs no runtime tagging and treats snapshot as a no-op, reporting
the percentage energy overhead: within a few percent, frequently
negative because run-to-run variance dominates the tiny mechanism cost.

Measuring a sub-percent delta by differencing two noisy end-to-end
wall-clock runs is hopeless on a shared machine (the paper's negative
entries show their testbed had the same problem), so the harness
decomposes the measurement into parts that are each individually
stable:

1. the *mechanism cost* — the per-operation price of snapshot
   (attributor dispatch + bound check + tag/copy), of a waterfall-
   checked message, and of a mode-case elimination — measured by long
   (>= 0.25 s) tight loops against the baseline runtime, which average
   over scheduler and DVFS noise;
2. the *mechanism counts* — how many of each operation one episode of
   the benchmark performs, read off the runtime's statistics counters;
3. the *kernel time* — the episode's baseline wall-clock, measured as
   one long block of repeated episodes.

``overhead = sum(count_i * cost_i) / kernel_time`` — the same quantity
the paper's ENT-vs-baseline quotient estimates, without the
differencing noise.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.platform.systems import make_platform
from repro.runtime.embedded import EntRuntime
from repro.workloads.base import ES, MG, Workload
from repro.workloads.registry import ALL_WORKLOADS, get_workload

__all__ = ["MechanismCosts", "OverheadRow", "figure6",
           "measure_mechanism_costs", "measure_overhead"]


@dataclass
class MechanismCosts:
    """Per-operation cost (seconds) of the runtime mechanisms."""

    snapshot_s: float
    message_s: float
    elim_s: float


@dataclass
class OverheadRow:
    benchmark: str
    description: str
    systems: str
    cloc: int
    ent_changes: int
    #: Baseline episode wall-clock (seconds).
    baseline_seconds: float
    #: Mechanism invocations in one episode.
    counts: Dict[str, int] = field(default_factory=dict)
    #: Estimated mechanism seconds added by the full runtime.
    mechanism_seconds: float = 0.0

    @property
    def overhead_percent(self) -> float:
        if self.baseline_seconds <= 0:
            return 0.0
        return 100.0 * self.mechanism_seconds / self.baseline_seconds


def _timed_loop(fn, min_seconds: float = 0.25,
                probe_iters: int = 64) -> float:
    """Per-call seconds of ``fn``, from one long timed block."""
    start = time.perf_counter()
    for _ in range(probe_iters):
        fn()
    probe = max(1e-9, time.perf_counter() - start)
    iterations = max(probe_iters, int(probe_iters * min_seconds / probe))
    start = time.perf_counter()
    for _ in range(iterations):
        fn()
    return (time.perf_counter() - start) / iterations


_COST_CACHE: Optional[MechanismCosts] = None


def measure_mechanism_costs(refresh: bool = False) -> MechanismCosts:
    """Microbenchmark the three runtime mechanisms (cached)."""
    global _COST_CACHE
    if _COST_CACHE is not None and not refresh:
        return _COST_CACHE
    full = EntRuntime.standard()
    base = EntRuntime.standard(baseline=True)

    def build(rt):
        @rt.dynamic
        class Probe:
            level = rt.mcase({"energy_saver": 1, "managed": 2,
                              "full_throttle": 3})

            def __init__(self) -> None:
                self.n = 42

            def attributor(self):
                return "managed"

            def touch(self):
                return self.n

        return Probe

    FullProbe, BaseProbe = build(full), build(base)
    full_obj = full.snapshot(FullProbe())
    base_obj = base.snapshot(BaseProbe())

    was_enabled = gc.isenabled()
    gc.disable()
    try:
        # Snapshot: full machinery vs the baseline tag-only path.
        t_snap_full = _timed_loop(lambda: full.snapshot(full_obj))
        t_snap_base = _timed_loop(lambda: base.snapshot(base_obj))
        # Message: wrapped call with dfall check vs baseline wrapper.
        with full.booted("full_throttle"):
            t_msg_full = _timed_loop(full_obj.touch)
        t_msg_base = _timed_loop(base_obj.touch)
        # Mode-case elimination via the descriptor.
        t_elim_full = _timed_loop(lambda: full_obj.level)
        t_elim_base = _timed_loop(lambda: base_obj.level)
    finally:
        if was_enabled:
            gc.enable()
    _COST_CACHE = MechanismCosts(
        snapshot_s=max(0.0, t_snap_full - t_snap_base),
        message_s=max(0.0, t_msg_full - t_msg_base),
        elim_s=max(0.0, t_elim_full - t_elim_base))
    return _COST_CACHE


def _build_episode(workload: Workload, system: str, baseline: bool,
                   seed: int):
    """One E1-style episode closure; returns (run, runtime)."""
    platform = make_platform(system, seed=seed, battery_fraction=0.9)
    rt = EntRuntime.standard(platform, baseline=baseline)

    @rt.dynamic
    class Task:
        def __init__(self) -> None:
            self.size = workload.task_size(ES)

        def attributor(self):
            return workload.attribute(self.size)

        def process(self):
            return workload.execute(rt.platform, self.size,
                                    workload.qos_value(MG))

    def run():
        task = rt.snapshot(Task())
        with rt.booted("full_throttle"):
            return task.process()

    return run, rt


def _episode_counts(workload: Workload, system: str,
                    seed: int) -> Dict[str, int]:
    run, rt = _build_episode(workload, system, baseline=False, seed=seed)
    run()
    stats = rt.stats
    return {
        "snapshots": stats.snapshots,
        "messages": stats.messages,
        "elims": stats.mcase_elims,
    }


def measure_overhead(name: str, system: Optional[str] = None,
                     repeats: int = 5, seed: int = 0) -> OverheadRow:
    """One Figure 6 row: static columns + estimated runtime overhead.

    ``repeats`` scales the kernel-time measurement block.
    """
    workload = get_workload(name)
    target = system if system is not None else workload.systems[0]
    costs = measure_mechanism_costs()
    counts = _episode_counts(workload, target, seed)

    run, _ = _build_episode(workload, target, baseline=True, seed=seed)
    run()  # warm-up
    block = max(3, repeats)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for index in range(block):
            run_i, _ = _build_episode(workload, target, baseline=True,
                                      seed=seed + index)
            run_i()
        kernel_seconds = (time.perf_counter() - start) / block
    finally:
        if was_enabled:
            gc.enable()
    mechanism = (counts["snapshots"] * costs.snapshot_s
                 + counts["messages"] * costs.message_s
                 + counts["elims"] * costs.elim_s)
    return OverheadRow(
        benchmark=workload.name, description=workload.description,
        systems=",".join(workload.systems), cloc=workload.cloc,
        ent_changes=workload.ent_changes,
        baseline_seconds=kernel_seconds, counts=counts,
        mechanism_seconds=mechanism)


def figure6(repeats: int = 5, seed: int = 0,
            benchmarks: Optional[List[str]] = None) -> List[OverheadRow]:
    names = benchmarks if benchmarks is not None else [
        w.name for w in ALL_WORKLOADS]
    return [measure_overhead(name, repeats=repeats, seed=seed)
            for name in names]
