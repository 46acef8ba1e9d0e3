"""One simulated device: an embedded-ENT adaptive episode.

A device is Listing 1's shape at population scale: a dynamic ``Agent``
whose attributor reads the live battery level, a mode case selecting
the per-mode step plan (CPU work, telemetry bytes, sleep), and a
fixed-``full_throttle`` ``Uplink`` whose waterfall check *fails by
design* whenever the device has degraded below full throttle — the
fleet's violation counter is the population-wide rate of those
refused telemetry pushes.

The same :func:`run_device` body serves both execution engines; they
differ only in what they reuse:

* the ``embedded`` (reference) engine builds a fresh platform,
  runtime, and instrumented classes per device — exactly what a naive
  port of :func:`repro.eval.sweeps.battery_drain_run` would do;
* the ``batched`` engine seats devices one after another into shared
  per-shard objects (``Platform.reset``,
  ``EntRuntime.reset_device``, one :class:`DeviceApp` per runtime),
  so the per-device cost is the episode itself, not construction.

Because the *step code* is literally the same function over the same
simulator math, the two engines produce bit-identical per-device
outcomes — the property suite asserts it.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Dict, Tuple

from repro.core.errors import EnergyException
from repro.fleet.spec import LOAD_FACTORS, DeviceParams, FleetSpec
from repro.runtime.embedded import EntRuntime
from repro.workloads.base import battery_boot_mode

__all__ = ["DeviceApp", "DeviceOutcome", "run_device"]

#: RuntimeStats fields aggregated fleet-wide.  ``dfall_memo_hits`` is
#: absent: it is always 0 and kept only for the benchmark harness, and
#: leaving it out keeps the aggregate digest's shape.
STAT_FIELDS: Tuple[str, ...] = (
    "messages", "dfall_checks", "snapshots", "copies", "lazy_tags",
    "bound_checks", "energy_exceptions", "mcase_elims")

#: Reads every :data:`STAT_FIELDS` counter off a ``RuntimeStats`` in
#: one call, as a tuple.
_read_stats = operator.attrgetter(*STAT_FIELDS)
_EXCEPTIONS = STAT_FIELDS.index("energy_exceptions")


class DeviceApp:
    """The instrumented ENT classes for one runtime (shared config).

    Instrumentation closes over its runtime, so the classes cannot be
    shared *across* runtimes — but one app serves every device seated
    on its runtime, which is the batched engine's whole point.  The
    mode-case tables (one per archetype) are built once here too.
    """

    def __init__(self, rt: EntRuntime, spec: FleetSpec) -> None:
        self.rt = rt

        @rt.dynamic
        class FleetAgent:
            def attributor(self):
                return battery_boot_mode(rt.ext.battery())

            def run_step(self, platform, units):
                platform.cpu_work(units)

        @rt.static("full_throttle")
        class FleetUplink:
            def push(self, platform, count):
                platform.net_bytes(count)

        self.agent_cls = FleetAgent
        self.uplink = FleetUplink()
        self.plans = {
            archetype.name: rt.mcase(archetype.plan_dict())
            for archetype in spec.archetypes}


@dataclass
class DeviceOutcome:
    """Integer-exact per-device aggregate contribution.

    Everything a device feeds into the fleet aggregates is an integer
    (microjoules, microseconds, per-mille, counts), so folding
    outcomes is associative and commutative *exactly* — the shard
    partition and arrival order cannot perturb the totals.
    """

    steps: int
    died: int
    violations: int
    pushes: int
    #: Component microjoules in EnergyLedger.COMPONENTS order.
    energy_uj: Tuple[int, ...]
    total_uj: int
    #: Final battery level in per-mille of capacity.
    battery_pm: int
    #: Simulated microseconds dwelt per boot mode.
    dwell_us: Dict[str, int]
    #: RuntimeStats deltas in :data:`STAT_FIELDS` order.
    stats: Tuple[int, ...]


def run_device(platform, rt: EntRuntime, app: DeviceApp,
               params: DeviceParams, steps: int) -> DeviceOutcome:
    """Run one device's adaptive episode and return its contribution.

    ``platform`` must already be seated (fresh construction or
    ``Platform.reset``) and ``rt`` at its device-zero state; the
    caller owns that choice — it is exactly the engine difference.
    """
    stats = rt.stats
    before = _read_stats(stats)
    plan_case = app.plans[params.archetype.name]
    agent_cls = app.agent_cls
    uplink = app.uplink
    stream = params.stream
    profile = params.profile
    load = LOAD_FACTORS[params.load_k]
    capacity = platform.battery.capacity_joules
    vampire_j = profile.vampire_frac * capacity
    burst_j = profile.burst_frac * capacity
    battery = platform.battery
    # Bound once per device: the loop below is the fleet's hot path.
    snapshot = rt.snapshot
    booted = rt.booted
    plan_for = plan_case.for_object
    now = platform.now
    dwell_s: Dict[str, float] = {}
    steps_run = 0
    pushes = 0
    for _ in range(steps):
        if battery.empty:
            break
        # Listing 1's loop: re-snapshot each iteration so the boot
        # mode tracks the battery, eliminate the plan on it, work.
        agent = snapshot(agent_cls())
        units, net_bytes, sleep_ms = plan_for(agent)
        start = now()
        with booted(agent) as mode:
            agent.run_step(platform, units * load)
            if net_bytes:
                pushes += 1
                try:
                    uplink.push(platform, net_bytes)
                except EnergyException:
                    # Waterfall refusal: the device is below
                    # full_throttle, telemetry is shed this step.
                    pass
            if sleep_ms:
                platform.sleep(sleep_ms / 1000.0)
        mode_name = mode.name
        dwell_s[mode_name] = (dwell_s.get(mode_name, 0.0)
                              + (now() - start))
        # External drain: the profile's background draw plus bursts
        # from the device's one splitmix stream (never a fresh RNG).
        drain_j = vampire_j
        if profile.burst_pm and stream.below(1000) < profile.burst_pm:
            drain_j += burst_j
        if drain_j:
            battery.drain(min(drain_j, battery.charge_joules))
        steps_run += 1
    after = _read_stats(stats)
    ledger = platform.ledger
    energy_uj = tuple(
        int(round(getattr(ledger, component) * 1e6))
        for component in ledger.COMPONENTS)
    return DeviceOutcome(
        steps=steps_run,
        died=1 if battery.empty else 0,
        violations=after[_EXCEPTIONS] - before[_EXCEPTIONS],
        pushes=pushes,
        energy_uj=energy_uj,
        total_uj=sum(energy_uj),
        battery_pm=int(round(battery.fraction(platform.now()) * 1000)),
        dwell_us={name: int(round(seconds * 1e6))
                  for name, seconds in dwell_s.items()},
        stats=tuple(a - b for a, b in zip(after, before)))
