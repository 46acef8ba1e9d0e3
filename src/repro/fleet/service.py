"""The fleet orchestrator: shard fan-out and order-independent fold.

:func:`run_fleet` partitions the population into contiguous index
ranges, fans the shards out through :func:`repro.core.pool.run_keyed`,
and folds each :class:`~repro.fleet.shard.ShardResult` into the
fleet-wide :class:`~repro.obs.metrics.MetricsRegistry` and
:class:`~repro.obs.prof.Profile` *as it arrives* — no sorting, no
buffering.  Folding on arrival is safe because every aggregate the
shards emit is integer-exact, so the merge is associative and
commutative exactly; the unit suite asserts bit-identical aggregates
across shard counts and deliberately shuffled completion orders.

``shards <= 1`` (or a single-device population) runs in-process with
no pool at all — the degenerate case costs nothing and is the
reference for the multiprocess paths.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.pool import run_keyed
from repro.fleet.shard import (ENGINES, ShardResult, ShardTask,
                               run_shard)
from repro.fleet.spec import FleetSpec
from repro.obs.metrics import MetricsRegistry
from repro.obs.prof import Profile

__all__ = ["FleetReport", "partition", "run_fleet"]


def partition(devices: int, shards: int) -> List[Tuple[int, int]]:
    """Contiguous ``[start, stop)`` ranges, sizes differing by <= 1.

    Pure arithmetic on ``(devices, shards)`` — the partition (like the
    per-device parameter derivation) never depends on runtime state,
    which is half of the determinism story.
    """
    shards = max(1, min(shards, devices)) if devices else 1
    base, extra = divmod(devices, shards)
    ranges: List[Tuple[int, int]] = []
    start = 0
    for index in range(shards):
        stop = start + base + (1 if index < extra else 0)
        ranges.append((start, stop))
        start = stop
    return ranges


@dataclass
class FleetReport:
    """The folded result of one fleet run."""

    spec: FleetSpec
    engine: str
    shards: int
    registry: MetricsRegistry = field(default_factory=MetricsRegistry)
    profile: Profile = field(default_factory=lambda: Profile("fleet"))
    #: ``(shard_index, devices, seconds)`` per shard, arrival order.
    shard_timings: List[Tuple[int, int, float]] = field(
        default_factory=list)
    elapsed_s: float = 0.0

    @property
    def devices(self) -> int:
        return sum(devices for _, devices, _ in self.shard_timings)

    @property
    def devices_per_sec(self) -> float:
        return self.devices / self.elapsed_s if self.elapsed_s else 0.0

    def aggregate_digest(self) -> Dict[str, object]:
        """The deterministic slice of the report: everything that must
        be bit-identical across shard counts and completion orders.

        Wall-clock fields (timings, throughput) are excluded; the
        rest — every counter, every histogram bucket, the profile's
        check sites — is pure function of the spec.
        """
        return {
            "counters": {name: counter.value for name, counter
                         in sorted(self.registry.counters.items())},
            "histograms": {
                name: {"count": hist.count, "sum": hist.total,
                       "buckets": list(hist.bucket_counts)}
                for name, hist
                in sorted(self.registry.histograms.items())},
            "check_sites": {sid: dict(entry) for sid, entry
                            in sorted(self.profile.check_sites.items())},
        }

    def as_dict(self) -> Dict[str, object]:
        return {
            "devices": self.devices,
            "shards": self.shards,
            "engine": self.engine,
            "seed": self.spec.seed,
            "steps": self.spec.steps,
            "elapsed_s": self.elapsed_s,
            "devices_per_sec": self.devices_per_sec,
            "shard_timings": [
                {"shard": index, "devices": devices, "seconds": secs}
                for index, devices, secs in self.shard_timings],
            "metrics": self.registry.as_dict(),
            "check_sites": {sid: dict(entry) for sid, entry
                            in sorted(self.profile.check_sites.items())},
        }

    def render(self) -> str:
        counters = self.registry.counters
        lines = [
            f"fleet: {self.devices} devices, {self.shards} shard(s), "
            f"engine={self.engine}, seed={self.spec.seed}",
            f"  elapsed {self.elapsed_s:.3f}s "
            f"({self.devices_per_sec:,.0f} devices/s)",
        ]
        for index, devices, secs in sorted(self.shard_timings):
            rate = devices / secs if secs else 0.0
            lines.append(f"    shard {index}: {devices} devices "
                         f"in {secs:.3f}s ({rate:,.0f}/s)")
        def count(name: str) -> int:
            counter = counters.get(name)
            return counter.value if counter else 0
        lines.append(
            f"  steps {count('fleet.steps')}, "
            f"died {count('fleet.devices_died')}, "
            f"violations {count('fleet.violations')}"
            f"/{count('fleet.pushes')} pushes")
        total_uj = count("fleet.energy_uj.total")
        lines.append(f"  energy {total_uj / 1e6:,.1f} J total")
        dwell = {name.split(".")[-1]: counter.value
                 for name, counter in sorted(counters.items())
                 if name.startswith("fleet.dwell_us.")}
        if dwell:
            total_us = sum(dwell.values()) or 1
            parts = ", ".join(
                f"{mode} {100.0 * us / total_us:.1f}%"
                for mode, us in dwell.items())
            lines.append(f"  mode dwell: {parts}")
        return "\n".join(lines)


def _fold(report: FleetReport, result: ShardResult) -> None:
    report.registry.merge(result.registry)
    report.profile.merge(result.profile)
    report.shard_timings.append(
        (result.shard_index, result.devices, result.seconds))


def run_fleet(spec: FleetSpec, shards: int = 1, engine: str = "batched",
              progress: Optional[Callable[[ShardResult], None]] = None
              ) -> FleetReport:
    """Simulate the population described by ``spec``.

    ``shards`` worker processes each run one contiguous slice;
    ``shards <= 1`` runs in-process.  The report's aggregates are a
    pure function of ``(spec, engine)`` — see
    :meth:`FleetReport.aggregate_digest`.
    """
    if engine not in ENGINES:
        raise ValueError(f"unknown fleet engine {engine!r}; "
                         f"expected one of {', '.join(ENGINES)}")
    ranges = partition(spec.devices, shards)
    tasks = [ShardTask(spec=spec, shard_index=index, start=start,
                       stop=stop, engine=engine)
             for index, (start, stop) in enumerate(ranges)
             if stop > start]
    report = FleetReport(spec=spec, engine=engine,
                         shards=max(1, len(tasks)))
    started = time.perf_counter()
    for _, result in run_keyed(run_shard, tasks, len(tasks)):
        _fold(report, result)
        if progress is not None:
            progress(result)
    report.elapsed_s = time.perf_counter() - started
    return report
