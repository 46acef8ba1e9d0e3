"""The paper's three evaluation platforms, as simulators.

A :class:`Platform` composes the clock, battery, CPU/DVFS, thermal and
energy-ledger models and exposes the runtime interface the ENT
interpreter and the embedded runtime expect:

    battery_fraction() cpu_temperature() cpu_work(units)
    io_bytes(n) net_bytes(n) sleep(seconds) now()

The paper's systems differ only in data, one :class:`PlatformConfig`
row each in :data:`SYSTEMS`:

* ``A`` — Intel i5 laptop, 4 GB RAM, Ubuntu 14.04, measured via jRAPL
  (CPU package energy only).
* ``B`` — Raspberry Pi 2 Model B with keyboard/mouse/HDMI/ethernet
  attached, measured at the wall by a Watts Up? Pro; the battery level
  is *simulated*, as in the paper.
* ``C`` — Nexus 5X running Android 6.0/ART, measured through
  BatteryManager; the noisiest platform (RERAN touch replay, radios).

Run-to-run variation is modelled with a seeded multiplicative speed
jitter whose magnitude reproduces the paper's relative-standard-
deviation bands (A and B within 2-3%, C visibly higher).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Dict, Optional, Type

from repro.obs.events import PlatformReadEvent
from repro.obs.tracer import NULL_TRACER
from repro.platform.battery import Battery
from repro.platform.clock import SimClock
from repro.platform.cpu import (INTEL_I5, PI2_BCM2836, SNAPDRAGON_808, Cpu,
                                CpuSpec)
from repro.platform.meter import (BatteryManagerMeter, EnergyLedger, Meter,
                                  RaplMeter, WattsUpMeter)
from repro.platform.thermal import ThermalModel

__all__ = ["Platform", "PlatformConfig", "SYSTEMS", "make_platform"]

#: Governor sampling period: large work requests are executed in
#: slices so the ondemand governor can re-evaluate (as the real
#: governor does on its sampling interval).
GOVERNOR_PERIOD_S = 0.1


@dataclass(frozen=True)
class PlatformConfig:
    """A platform's hardware constants, as pure data.

    Everything here is shared by *all* simulated devices of one system
    — the fleet layer reuses one row across millions of devices,
    re-seating one platform per device with :meth:`Platform.reset`.
    The struct is hashable (usable as a cache key) and picklable
    (plain floats and strings, a frozen
    :class:`~repro.platform.cpu.CpuSpec`, and a meter class).
    """

    name: str
    cpu: CpuSpec
    meter: Type[Meter]
    #: Constant board power besides the CPU (peripherals), watts.
    peripheral_w: float
    #: Display power while the device is on, watts.
    display_w: float
    #: Storage: throughput (bytes/s) and active power (watts).
    io_bytes_per_s: float
    io_active_w: float
    #: Network: throughput (bytes/s) and active power (watts).
    net_bytes_per_s: float
    net_active_w: float
    #: Battery capacity in joules.
    battery_capacity_j: float
    #: Per-run relative speed jitter (1 sigma).
    run_jitter_rel: float
    #: Lumped-RC thermal model: ambient (C), resistance (C/W), tau (s).
    ambient_c: float
    r_th_c_per_w: float
    tau_s: float
    governor: str = "ondemand"


#: The paper's systems by letter: the only place their hardware is
#: written down.
SYSTEMS: Dict[str, PlatformConfig] = {
    # Intel i5 laptop; energy measured via jRAPL (CPU package only).
    "A": PlatformConfig(
        name="A", cpu=INTEL_I5, meter=RaplMeter,
        peripheral_w=0.0,         # RAPL sees only the package
        display_w=0.0,
        io_bytes_per_s=4.0e8,     # SATA SSD
        io_active_w=1.2,
        net_bytes_per_s=1.2e7,    # campus ethernet/wifi
        net_active_w=1.5,
        battery_capacity_j=1.8e5,  # ~50 Wh
        run_jitter_rel=0.008,
        ambient_c=35.0, r_th_c_per_w=1.2, tau_s=25.0),
    # Raspberry Pi 2 Model B measured at the wall (Watts Up? Pro).
    # Keyboard, mouse, HDMI monitor link and ethernet are attached, so
    # a constant peripheral draw rides on top of the CPU.  The battery
    # level is simulated (the Pi has no battery API), exactly as in
    # the paper.
    "B": PlatformConfig(
        name="B", cpu=PI2_BCM2836, meter=WattsUpMeter,
        peripheral_w=1.6,
        display_w=0.0,
        io_bytes_per_s=1.8e7,     # SD card
        io_active_w=0.35,
        net_bytes_per_s=1.1e7,    # 100 Mb ethernet
        net_active_w=0.4,
        battery_capacity_j=3.6e4,  # a simulated 10 Wh pack
        run_jitter_rel=0.006,
        # Passively cooled small board: higher thermal resistance.
        ambient_c=35.0, r_th_c_per_w=7.0, tau_s=40.0),
    # Nexus 5X (Android 6.0, ART), driven by replayed interaction.  The
    # paper reports clearly higher run-to-run deviation for System C
    # (internet response, touch replay); we reproduce it with a larger
    # run jitter plus the RERAN replay jitter in
    # :mod:`repro.platform.reran`.
    "C": PlatformConfig(
        name="C", cpu=SNAPDRAGON_808, meter=BatteryManagerMeter,
        peripheral_w=0.15,
        display_w=1.1,
        io_bytes_per_s=1.2e8,     # eMMC flash
        io_active_w=0.25,
        net_bytes_per_s=4.0e6,    # wifi with real-world servers
        net_active_w=0.85,
        battery_capacity_j=3.7e4,  # 2700 mAh at 3.8 V
        run_jitter_rel=0.028,
        ambient_c=33.0, r_th_c_per_w=6.0, tau_s=55.0),
}


class Platform:
    """One simulated device of the system ``config`` describes."""

    def __init__(self, config: PlatformConfig, seed: int = 0,
                 battery_fraction: float = 1.0) -> None:
        self.config = config
        self.rng = random.Random(seed)
        #: Observability hook; see :meth:`set_tracer`.
        self.tracer = NULL_TRACER
        self.reset(seed, battery_fraction)

    def set_tracer(self, tracer) -> None:
        """Attach a tracer: signal reads and meter windows are recorded,
        and the tracer's clock becomes this platform's sim clock."""
        self.tracer = tracer
        tracer.bind_platform(self)

    # ------------------------------------------------------------------
    # Interpreter / embedded-runtime interface

    def battery_fraction(self) -> float:
        fraction = self.battery.fraction()
        if self.tracer.enabled:
            self.tracer.emit(PlatformReadEvent(
                ts=self.clock.now, signal="battery", value=fraction))
        return fraction

    def cpu_temperature(self) -> float:
        if self.tracer.enabled:
            self.tracer.emit(PlatformReadEvent(
                ts=self.clock.now, signal="temperature",
                value=self.thermal.temperature_c))
        return self.thermal.temperature_c

    def cpu_work(self, units: float) -> None:
        cpu = self.cpu
        ops_table = cpu.spec.ops_table
        remaining = units
        while remaining > 0:
            per_second = ops_table[cpu.governor.select_level()] / 1.0e6
            slice_units = min(remaining, per_second * GOVERNOR_PERIOD_S)
            duration, cpu_power = cpu.execute(slice_units)
            self._account(duration * self._speed_factor, cpu_power)
            remaining -= slice_units

    def io_bytes(self, count: float) -> None:
        if count <= 0:
            return
        config = self.config
        duration = count / config.io_bytes_per_s * self._speed_factor
        cpu = self.cpu
        self._account(duration, cpu.spec.idle_table[cpu.current_level],
                      "io_j", config.io_active_w)

    def net_bytes(self, count: float) -> None:
        if count <= 0:
            return
        config = self.config
        duration = count / config.net_bytes_per_s * self._speed_factor
        cpu = self.cpu
        self._account(duration, cpu.spec.idle_table[cpu.current_level],
                      "net_j", config.net_active_w)

    def sleep(self, seconds: float) -> None:
        if seconds <= 0:
            return
        idle_power = self.cpu.idle(seconds)
        self.sleep_total_s += seconds
        self._account(seconds, idle_power)

    def now(self) -> float:
        return self.clock.now

    # ------------------------------------------------------------------

    def _account(self, duration: float, cpu_power: float,
                 component: Optional[str] = None,
                 watts: float = 0.0) -> None:
        """Advance time and integrate energy/thermal for one interval.

        ``component``/``watts`` name a device (``io_j``, ``net_j``)
        drawing ``watts`` besides the CPU for the interval.
        """
        config = self.config
        ledger = self.ledger
        ledger.cpu_j += cpu_power * duration
        ledger.peripheral_j += config.peripheral_w * duration
        ledger.display_j += config.display_w * duration
        total_power = cpu_power + config.peripheral_w + config.display_w
        if component is not None:
            setattr(ledger, component,
                    getattr(ledger, component) + watts * duration)
            total_power += watts
        temperature = self.thermal.step(cpu_power, duration)
        self.battery.drain(total_power * duration)
        self.clock.advance(duration)
        self.temperature_trace.append((self.clock.now, temperature))

    def meter(self) -> Meter:
        return self.config.meter(self.ledger, rng=self.rng,
                                 tracer=self.tracer)

    def energy_total_j(self) -> float:
        return self.ledger.total_j

    def reset(self, seed: int = 0, battery_fraction: float = 1.0,
              capacity_scale: float = 1.0) -> None:
        """Seat this platform as a brand-new device.

        The constructor seats through here, so re-seating an existing
        platform is bit-for-bit a fresh construction with
        ``seed``/``battery_fraction`` (the RNG is reseeded and the
        speed-jitter draw repeated) — the fleet's batched engine
        reuses one platform per shard this way.  ``capacity_scale``
        shrinks the battery relative to the configured capacity (drain
        profiles use it so a discharge fits in an episode).
        """
        config = self.config
        self.rng.seed(seed)
        self.clock = SimClock()
        self.cpu = Cpu(config.cpu, governor=config.governor)
        self.thermal = ThermalModel(config.ambient_c, config.r_th_c_per_w,
                                    config.tau_s)
        self.battery = Battery(config.battery_capacity_j * capacity_scale,
                               fraction=battery_fraction)
        self.ledger = EnergyLedger()
        # One multiplicative speed factor per run: models JIT state,
        # scheduling, ambient variation.
        self._speed_factor = max(
            0.5, 1.0 + self.rng.gauss(0.0, config.run_jitter_rel))
        self.sleep_total_s = 0.0
        #: Temperature trace: (time, celsius) samples appended on
        #: every activity, consumed by the E3 harness.
        self.temperature_trace = [(0.0, self.thermal.temperature_c)]

    def __repr__(self) -> str:
        # Reads the battery directly: ``battery_fraction()`` would
        # record a platform read on an attached tracer.
        return (f"<Platform {self.config.name} t={self.clock.now:.3f}s "
                f"E={self.ledger.total_j:.2f}J "
                f"T={self.thermal.temperature_c:.1f}C "
                f"bat={self.battery.fraction():.0%}>")


def make_platform(system: str, seed: int = 0,
                  battery_fraction: float = 1.0,
                  governor: str = "ondemand") -> Platform:
    """Instantiate one of the paper's systems by letter."""
    try:
        config = SYSTEMS[system.upper()]
    except KeyError:
        raise ValueError(f"unknown system {system!r}; "
                         f"expected one of A, B, C") from None
    if governor != config.governor:
        config = replace(config, governor=governor)
    return Platform(config, seed=seed, battery_fraction=battery_fraction)
