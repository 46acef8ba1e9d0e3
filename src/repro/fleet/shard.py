"""The per-process fleet worker: one shard of the device population.

A shard owns a contiguous index range ``[start, stop)`` of the
population and runs it to completion, accumulating keyed aggregates.
The interesting part is what it builds *once* versus *per device*:

========================  =======================  ====================
                          ``batched`` engine       ``embedded`` engine
========================  =======================  ====================
Platform objects          one per system letter,   fresh per device
                          ``Platform.reset`` per
                          device
EntRuntime                one, ``reset_device``    fresh per device
                          per device
Instrumented ENT classes  one :class:`DeviceApp`   fresh per device
+ mode-case tables
========================  =======================  ====================

The ``embedded`` engine is the reference: it is what a straightforward
loop over :mod:`repro.eval.sweeps`-style episodes would do, and it is
kept as the differential oracle — both engines run the identical
:func:`repro.fleet.device.run_device` body over the identical
simulator math, so their aggregates are bit-equal (the property suite
asserts it) while the batched engine skips almost all construction.

Aggregates are accumulated as plain integers and flushed into a
:class:`~repro.obs.metrics.MetricsRegistry` + counts-only
:class:`~repro.obs.prof.Profile` at shard end; both merge commutatively
in the parent, so results cannot depend on shard count or completion
order.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.fleet.device import STAT_FIELDS, DeviceApp, run_device
from repro.fleet.spec import FleetSpec, device_params
from repro.obs.metrics import MetricsRegistry
from repro.obs.prof import Profile
from repro.platform.meter import EnergyLedger
from repro.platform.systems import SYSTEMS, Platform
from repro.runtime.embedded import EntRuntime

__all__ = ["ENGINES", "ShardTask", "ShardResult", "run_shard",
           "ENERGY_BOUNDS", "BATTERY_BOUNDS"]

ENGINES = ("batched", "embedded")

#: Per-device total-energy histogram bounds, in microjoules (1 mJ to
#: 500 J, geometric 1-2-5).  Explicit and fixed so every shard's
#: histograms are bucket-compatible for merging.
ENERGY_BOUNDS: Tuple[float, ...] = tuple(
    base * 10.0 ** exp
    for exp in range(3, 9)
    for base in (1.0, 2.0, 5.0))

#: Final-battery histogram bounds, per-mille of capacity.
BATTERY_BOUNDS: Tuple[float, ...] = tuple(
    float(level) for level in range(0, 1001, 50))


@dataclass(frozen=True)
class ShardTask:
    """One worker's slice of the population (picklable)."""

    spec: FleetSpec
    shard_index: int
    start: int
    stop: int
    engine: str = "batched"


@dataclass
class ShardResult:
    """A shard's keyed aggregates plus its wall-clock timing.

    ``registry``/``profile`` hold only integer-exact quantities
    (microjoule/microsecond counters, integer-valued histogram
    samples), so folding results in arrival order is exact.  The
    wall-clock ``seconds`` is for throughput reporting only and never
    enters the aggregates.
    """

    shard_index: int
    engine: str
    devices: int
    seconds: float
    registry: MetricsRegistry = field(default_factory=MetricsRegistry)
    profile: Profile = field(default_factory=lambda: Profile("fleet"))


def _check_site(profile: Profile, sid: str, kind: str,
                executed: int) -> None:
    entry = profile.check_sites.setdefault(
        sid, {"kind": kind, "executed": 0, "elided": 0})
    entry["executed"] += executed


def run_shard(task: ShardTask) -> ShardResult:
    """Run one shard to completion (module-level: process-pool safe)."""
    if task.engine not in ENGINES:
        raise ValueError(f"unknown fleet engine {task.engine!r}; "
                         f"expected one of {', '.join(ENGINES)}")
    spec = task.spec
    batched = task.engine == "batched"
    started = time.perf_counter()

    # Batched engine's long-lived objects (per system / per shard).
    platforms: Dict[str, Platform] = {}
    shared_rt: Optional[EntRuntime] = None
    shared_app: Optional[DeviceApp] = None
    if batched:
        shared_rt = EntRuntime.standard()
        shared_app = DeviceApp(shared_rt, spec)

    counts: Dict[str, int] = {}

    def bump(key: str, amount: int) -> None:
        counts[key] = counts.get(key, 0) + amount

    registry = MetricsRegistry()
    energy_hist = registry.histogram("fleet.device_energy_uj",
                                     ENERGY_BOUNDS)
    battery_hist = registry.histogram("fleet.final_battery_pm",
                                      BATTERY_BOUNDS)

    devices = 0
    for index in range(task.start, task.stop):
        params = device_params(spec, index)
        if batched:
            platform = platforms.get(params.system)
            if platform is None:
                platform = platforms[params.system] = \
                    Platform(SYSTEMS[params.system])
            rt, app = shared_rt, shared_app
            rt.reset_device()
        else:
            platform = Platform(SYSTEMS[params.system])
            rt = EntRuntime.standard()
            app = DeviceApp(rt, spec)
        # Both engines seat the device through the same reset path, so
        # the episode's float-op sequence is engine-independent.
        platform.reset(params.platform_seed, params.start_fraction,
                       spec.battery_scale)
        rt.bind_platform(platform)

        outcome = run_device(platform, rt, app, params, spec.steps)
        devices += 1

        bump("fleet.devices", 1)
        bump("fleet.steps", outcome.steps)
        bump("fleet.devices_died", outcome.died)
        bump("fleet.violations", outcome.violations)
        bump("fleet.pushes", outcome.pushes)
        bump("fleet.energy_uj.total", outcome.total_uj)
        bump(f"fleet.devices.system_{params.system}", 1)
        bump(f"fleet.devices.profile_{params.profile.name}", 1)
        bump(f"fleet.devices.archetype_{params.archetype.name}", 1)
        for component, uj in zip(EnergyLedger.COMPONENTS,
                                 outcome.energy_uj):
            bump(f"fleet.energy_uj.{component}", uj)
        for mode_name, us in outcome.dwell_us.items():
            bump(f"fleet.dwell_us.{mode_name}", us)
        for name, delta in zip(STAT_FIELDS, outcome.stats):
            bump(f"fleet.runtime.{name}", delta)
        # Histogram samples are integers (exact under float addition
        # far past any realistic fleet size).
        energy_hist.record(float(outcome.total_uj))
        battery_hist.record(float(outcome.battery_pm))

    for key, value in counts.items():
        registry.counter(key).inc(value)

    profile = Profile("fleet")
    _check_site(profile, "dfall@FleetUplink.push", "dfall",
                counts.get("fleet.runtime.dfall_checks", 0))
    _check_site(profile, "bound@FleetAgent.snapshot", "snapshot-bound",
                counts.get("fleet.runtime.bound_checks", 0))
    _check_site(profile, "mcase@FleetAgent.plan", "mcase",
                counts.get("fleet.runtime.mcase_elims", 0))

    return ShardResult(shard_index=task.shard_index, engine=task.engine,
                       devices=devices,
                       seconds=time.perf_counter() - started,
                       registry=registry, profile=profile)
