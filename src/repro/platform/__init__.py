"""Simulated energy platforms: battery, thermal, CPU/DVFS, and meters."""

from repro.platform.battery import Battery
from repro.platform.clock import SimClock
from repro.platform.cpu import (INTEL_I5, PI2_BCM2836, SNAPDRAGON_808, Cpu,
                                CpuSpec, OndemandGovernor,
                                PerformanceGovernor)
from repro.platform.meter import (BatteryManagerMeter, EnergyLedger, Meter,
                                  RaplMeter, WattsUpMeter)
from repro.platform.reran import Recording, ReranReplayer, TouchEvent
from repro.platform.systems import (SYSTEMS, Platform, PlatformConfig,
                                    make_platform)
from repro.platform.thermal import ThermalModel

__all__ = [
    "Battery",
    "BatteryManagerMeter",
    "Cpu",
    "CpuSpec",
    "EnergyLedger",
    "INTEL_I5",
    "Meter",
    "OndemandGovernor",
    "PerformanceGovernor",
    "PI2_BCM2836",
    "Platform",
    "PlatformConfig",
    "RaplMeter",
    "Recording",
    "ReranReplayer",
    "SNAPDRAGON_808",
    "SYSTEMS",
    "SimClock",
    "ThermalModel",
    "TouchEvent",
    "WattsUpMeter",
    "make_platform",
]
