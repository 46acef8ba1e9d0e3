"""The paper's three evaluation platforms, as simulators.

Each platform composes the clock, battery, CPU/DVFS, thermal and energy-
ledger models and exposes the runtime interface the ENT interpreter and
the embedded runtime expect:

    battery_fraction() cpu_temperature() cpu_work(units)
    io_bytes(n) net_bytes(n) sleep(seconds) now()

* :class:`SystemA` — Intel i5 laptop, 4 GB RAM, Ubuntu 14.04, measured
  via jRAPL (CPU package energy only).
* :class:`SystemB` — Raspberry Pi 2 Model B with keyboard/mouse/HDMI/
  ethernet attached, measured at the wall by a Watts Up? Pro; the
  battery level is *simulated*, as in the paper.
* :class:`SystemC` — Nexus 5X running Android 6.0/ART, measured through
  BatteryManager; the noisiest platform (RERAN touch replay, radios).

Run-to-run variation is modelled with a seeded multiplicative speed
jitter whose magnitude reproduces the paper's relative-standard-
deviation bands (A and B within 2-3%, C visibly higher).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from repro.obs.events import PlatformReadEvent
from repro.obs.tracer import NULL_TRACER
from repro.platform.battery import Battery
from repro.platform.clock import SimClock
from repro.platform.cpu import (INTEL_I5, PI2_BCM2836, SNAPDRAGON_808, Cpu,
                                CpuSpec)
from repro.platform.meter import (BatteryManagerMeter, EnergyLedger, Meter,
                                  RaplMeter, WattsUpMeter)
from repro.platform.thermal import ThermalModel

__all__ = ["Platform", "PlatformConfig", "SystemA", "SystemB", "SystemC",
           "make_platform", "platform_from_config"]

#: Meter classes by the symbolic name :class:`PlatformConfig` carries
#: (the config stays a pure-data struct; classes are looked up here).
_METERS = {
    "rapl": RaplMeter,
    "wattsup": WattsUpMeter,
    "battery_manager": BatteryManagerMeter,
}
_METER_NAMES = {cls: name for name, cls in _METERS.items()}


@dataclass(frozen=True)
class PlatformConfig:
    """A platform's hardware constants, as pure data.

    Everything here is shared by *all* simulated devices of one system
    — the fleet layer builds one config per system letter and reuses
    it across millions of devices, re-seating one platform per device
    with :meth:`Platform.reset`.  The struct is hashable (usable as a
    cache key) and picklable (plain floats, strings, and a frozen
    :class:`~repro.platform.cpu.CpuSpec`).
    """

    name: str
    cpu: CpuSpec
    governor: str
    meter: str
    peripheral_w: float
    display_w: float
    io_bytes_per_s: float
    io_active_w: float
    net_bytes_per_s: float
    net_active_w: float
    battery_capacity_j: float
    run_jitter_rel: float
    ambient_c: float
    r_th_c_per_w: float
    tau_s: float


class Platform:
    """Base simulated platform; subclasses set the hardware constants."""

    name = "generic"
    meter_class = RaplMeter

    #: Constant board power besides the CPU (peripherals), watts.
    peripheral_w = 0.0
    #: Display power while the device is on, watts.
    display_w = 0.0
    #: Storage: throughput (bytes/s) and active power (watts).
    io_bytes_per_s = 2.0e8
    io_active_w = 0.5
    #: Network: throughput (bytes/s) and active power (watts).
    net_bytes_per_s = 5.0e6
    net_active_w = 1.0
    #: Battery capacity in joules.
    battery_capacity_j = 1.8e5
    #: Per-run relative speed jitter (1 sigma).
    run_jitter_rel = 0.01
    #: Lumped-RC thermal model: ambient (C), resistance (C/W), tau (s).
    ambient_c = 35.0
    r_th_c_per_w = 1.2
    tau_s = 25.0

    def __init__(self, cpu_spec: Optional[CpuSpec] = None,
                 governor: str = "ondemand", seed: int = 0,
                 battery_fraction: float = 1.0) -> None:
        self.governor_name = governor
        self.rng = random.Random(seed)
        self.clock = SimClock()
        self.cpu = Cpu(cpu_spec or INTEL_I5, governor=governor)
        self.thermal = ThermalModel(self.ambient_c, self.r_th_c_per_w,
                                    self.tau_s)
        self.battery = Battery(self.battery_capacity_j,
                               fraction=battery_fraction)
        self.ledger = EnergyLedger()
        # One multiplicative speed factor per run: models JIT state,
        # scheduling, ambient variation.
        self._speed_factor = max(
            0.5, 1.0 + self.rng.gauss(0.0, self.run_jitter_rel))
        self.sleep_total_s = 0.0
        #: Temperature trace: (time, celsius) samples appended on
        #: every activity, consumed by the E3 harness.
        self.temperature_trace = [(0.0, self.thermal.temperature_c)]
        #: Observability hook; see :meth:`set_tracer`.
        self.tracer = NULL_TRACER

    def set_tracer(self, tracer) -> None:
        """Attach a tracer: signal reads and meter windows are recorded,
        and the tracer's clock becomes this platform's sim clock."""
        self.tracer = tracer
        tracer.bind_platform(self)

    # ------------------------------------------------------------------
    # Interpreter / embedded-runtime interface

    def battery_fraction(self) -> float:
        fraction = self.battery.fraction(self.clock.now)
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

    #: Governor sampling period: large work requests are executed in
    #: slices so the ondemand governor can re-evaluate (as the real
    #: governor does on its sampling interval).
    governor_period_s = 0.1

    def cpu_work(self, units: float) -> None:
        remaining = units
        while remaining > 0:
            level = self.cpu.governor.select_level()
            per_second = (self.cpu.spec.ops_per_second(level) / 1.0e6)
            slice_units = min(remaining,
                              per_second * self.governor_period_s)
            duration, cpu_power = self.cpu.execute(slice_units)
            duration *= self._speed_factor
            self._account(duration, cpu_power=cpu_power)
            remaining -= slice_units

    def io_bytes(self, count: float) -> None:
        if count <= 0:
            return
        duration = count / self.io_bytes_per_s * self._speed_factor
        self._account(duration,
                      cpu_power=self.cpu.spec.idle_power(
                          self.cpu.current_level),
                      extra=("io_j", self.io_active_w))

    def net_bytes(self, count: float) -> None:
        if count <= 0:
            return
        duration = count / self.net_bytes_per_s * self._speed_factor
        self._account(duration,
                      cpu_power=self.cpu.spec.idle_power(
                          self.cpu.current_level),
                      extra=("net_j", self.net_active_w))

    def sleep(self, seconds: float) -> None:
        if seconds <= 0:
            return
        idle_power = self.cpu.idle(seconds)
        self.sleep_total_s += seconds
        self._account(seconds, cpu_power=idle_power)

    def now(self) -> float:
        return self.clock.now

    # ------------------------------------------------------------------

    def _account(self, duration: float, cpu_power: float,
                 extra: Optional[tuple] = None) -> None:
        """Advance time and integrate energy/thermal for one interval."""
        self.ledger.add("cpu_j", cpu_power * duration)
        self.ledger.add("peripheral_j", self.peripheral_w * duration)
        self.ledger.add("display_j", self.display_w * duration)
        total_power = cpu_power + self.peripheral_w + self.display_w
        if extra is not None:
            component, watts = extra
            self.ledger.add(component, watts * duration)
            total_power += watts
        self.thermal.step(cpu_power, duration)
        self.battery.drain(total_power * duration)
        self.clock.advance(duration)
        self.temperature_trace.append(
            (self.clock.now, self.thermal.temperature_c))

    def meter(self) -> Meter:
        return self.meter_class(self.ledger, rng=self.rng,
                                tracer=self.tracer)

    def energy_total_j(self) -> float:
        return self.ledger.total_j

    # ------------------------------------------------------------------
    # Fleet-scale device simulation

    def config(self) -> PlatformConfig:
        """This platform's immutable hardware constants."""
        return PlatformConfig(
            name=self.name, cpu=self.cpu.spec,
            governor=self.governor_name,
            meter=_METER_NAMES[self.meter_class],
            peripheral_w=self.peripheral_w, display_w=self.display_w,
            io_bytes_per_s=self.io_bytes_per_s,
            io_active_w=self.io_active_w,
            net_bytes_per_s=self.net_bytes_per_s,
            net_active_w=self.net_active_w,
            battery_capacity_j=self.battery_capacity_j,
            run_jitter_rel=self.run_jitter_rel,
            ambient_c=self.ambient_c,
            r_th_c_per_w=self.r_th_c_per_w,
            tau_s=self.tau_s)

    def reset(self, seed: int = 0, battery_fraction: float = 1.0,
              capacity_scale: float = 1.0) -> None:
        """Re-seat this platform as a brand-new device.

        Equivalent to constructing a fresh platform of the same
        configuration with ``seed``/``battery_fraction`` (bit-for-bit:
        the RNG is reseeded and the speed-jitter draw repeated), but
        without rebuilding the component objects — the fleet's batched
        engine reuses one platform per shard this way.
        ``capacity_scale`` shrinks the battery relative to the
        configured capacity (drain profiles use it so a discharge
        fits in an episode).
        """
        self.rng.seed(seed)
        self.clock = SimClock()
        self.cpu = Cpu(self.cpu.spec, governor=self.governor_name)
        self.thermal = ThermalModel(self.ambient_c, self.r_th_c_per_w,
                                    self.tau_s)
        self.battery = Battery(self.battery_capacity_j * capacity_scale,
                               fraction=battery_fraction)
        self.ledger = EnergyLedger()
        self._speed_factor = max(
            0.5, 1.0 + self.rng.gauss(0.0, self.run_jitter_rel))
        self.sleep_total_s = 0.0
        self.temperature_trace = [(0.0, self.thermal.temperature_c)]

    def __repr__(self) -> str:
        return (f"<{type(self).__name__} t={self.clock.now:.3f}s "
                f"E={self.ledger.total_j:.2f}J "
                f"T={self.thermal.temperature_c:.1f}C "
                f"bat={self.battery_fraction():.0%}>")


class SystemA(Platform):
    """Intel i5 laptop; energy measured via jRAPL (CPU package only)."""

    name = "A"
    meter_class = RaplMeter
    peripheral_w = 0.0       # RAPL sees only the package
    display_w = 0.0
    io_bytes_per_s = 4.0e8   # SATA SSD
    io_active_w = 1.2
    net_bytes_per_s = 1.2e7  # campus ethernet/wifi
    net_active_w = 1.5
    battery_capacity_j = 1.8e5   # ~50 Wh
    run_jitter_rel = 0.008

    def __init__(self, seed: int = 0, governor: str = "ondemand",
                 battery_fraction: float = 1.0) -> None:
        super().__init__(INTEL_I5, governor=governor, seed=seed,
                         battery_fraction=battery_fraction)


class SystemB(Platform):
    """Raspberry Pi 2 Model B measured at the wall (Watts Up? Pro).

    Keyboard, mouse, HDMI monitor link and ethernet are attached, so a
    constant peripheral draw rides on top of the CPU.  The battery level
    is simulated (the Pi has no battery API), exactly as in the paper.
    """

    name = "B"
    meter_class = WattsUpMeter
    peripheral_w = 1.6
    display_w = 0.0
    io_bytes_per_s = 1.8e7   # SD card
    io_active_w = 0.35
    net_bytes_per_s = 1.1e7  # 100 Mb ethernet
    net_active_w = 0.4
    battery_capacity_j = 3.6e4   # a simulated 10 Wh pack
    run_jitter_rel = 0.006
    # Passively cooled small board: higher thermal resistance.
    r_th_c_per_w = 7.0
    tau_s = 40.0

    def __init__(self, seed: int = 0, governor: str = "ondemand",
                 battery_fraction: float = 1.0) -> None:
        super().__init__(PI2_BCM2836, governor=governor, seed=seed,
                         battery_fraction=battery_fraction)


class SystemC(Platform):
    """Nexus 5X (Android 6.0, ART), driven by replayed interaction.

    The paper reports clearly higher run-to-run deviation for System C
    (internet response, touch replay); we reproduce it with a larger
    run jitter plus the RERAN replay jitter in
    :mod:`repro.platform.reran`.
    """

    name = "C"
    meter_class = BatteryManagerMeter
    peripheral_w = 0.15
    display_w = 1.1
    io_bytes_per_s = 1.2e8   # eMMC flash
    io_active_w = 0.25
    net_bytes_per_s = 4.0e6  # wifi with real-world servers
    net_active_w = 0.85
    battery_capacity_j = 3.7e4   # 2700 mAh at 3.8 V
    run_jitter_rel = 0.028
    ambient_c = 33.0
    r_th_c_per_w = 6.0
    tau_s = 55.0

    def __init__(self, seed: int = 0, governor: str = "ondemand",
                 battery_fraction: float = 1.0) -> None:
        super().__init__(SNAPDRAGON_808, governor=governor, seed=seed,
                         battery_fraction=battery_fraction)


_SYSTEMS = {"A": SystemA, "B": SystemB, "C": SystemC}


def make_platform(system: str, seed: int = 0,
                  battery_fraction: float = 1.0,
                  governor: str = "ondemand") -> Platform:
    """Instantiate one of the paper's systems by letter."""
    try:
        cls = _SYSTEMS[system.upper()]
    except KeyError:
        raise ValueError(f"unknown system {system!r}; "
                         f"expected one of A, B, C") from None
    return cls(seed=seed, battery_fraction=battery_fraction,
               governor=governor)


def system_config(system: str, governor: str = "ondemand"
                  ) -> PlatformConfig:
    """The :class:`PlatformConfig` of one of the paper's systems.

    Configs are pure data: building one does not construct a platform
    (the throwaway instance below is only a reader of class
    constants), so shards can exchange them cheaply.
    """
    return make_platform(system, governor=governor).config()


def platform_from_config(config: PlatformConfig, seed: int = 0,
                         battery_fraction: float = 1.0) -> Platform:
    """Instantiate a platform from its immutable config.

    The result steps bit-identically to the system subclass the
    config came from: all per-class constants become instance
    attributes, and the RNG/jitter initialization path is the shared
    :class:`Platform` one.

    Every platform built here is a plain :class:`Platform`, whatever
    its system, so the attribute sites in :class:`Platform`'s methods
    (``cpu_work``, ``_account``, ...) only ever see one type and stay
    monomorphic.  That is why fleet shards build their platforms here
    rather than with :func:`make_platform`: a batched shard runs
    faster on them.
    """
    platform = Platform.__new__(Platform)
    platform.name = config.name
    platform.meter_class = _METERS[config.meter]
    platform.peripheral_w = config.peripheral_w
    platform.display_w = config.display_w
    platform.io_bytes_per_s = config.io_bytes_per_s
    platform.io_active_w = config.io_active_w
    platform.net_bytes_per_s = config.net_bytes_per_s
    platform.net_active_w = config.net_active_w
    platform.battery_capacity_j = config.battery_capacity_j
    platform.run_jitter_rel = config.run_jitter_rel
    platform.ambient_c = config.ambient_c
    platform.r_th_c_per_w = config.r_th_c_per_w
    platform.tau_s = config.tau_s
    Platform.__init__(platform, config.cpu, governor=config.governor,
                      seed=seed, battery_fraction=battery_fraction)
    return platform
