"""CPU model: DVFS frequency levels, dynamic power, and governors.

Abstract work is measured in *units* of one million operations.  At a
given frequency level the CPU retires ``freq_ghz * 1e9 * ipc`` ops per
second and dissipates ``idle + k * f * V^2`` watts — the classic CMOS
dynamic-power form the paper's mode intuition rests on (its reference
[31], Chandrakasan et al.).

The default governor is ``ondemand`` (the paper runs every platform on
its default governor): it ramps to the highest level when recent
utilization is high and steps down when the system idles, which is what
produces the paper's System-B observation that lower application duty
cycles let the *hardware* drop to a lower-power mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Tuple

#: One work unit = this many operations.
OPS_PER_UNIT = 1.0e6


@dataclass(frozen=True)
class CpuSpec:
    """Static description of a CPU's DVFS operating points.

    The per-level figures are computed once, in ``__post_init__``, and
    kept as tuples indexed by level (``ops_table``, ``idle_table``,
    ``busy_table``): the platform's per-interval math reads them
    directly, and the accessor methods read them too, so each formula
    is written only here.
    """

    name: str
    freqs_ghz: Tuple[float, ...]
    voltages: Tuple[float, ...]
    ipc: float
    idle_w: float
    #: Dynamic power coefficient: P_dyn = k * f_ghz * V^2 (watts).
    dyn_coeff: float
    #: Ops retired per second at each level.
    ops_table: Tuple[float, ...] = field(init=False, repr=False,
                                         compare=False)
    #: Static/leakage power at each level (watts).
    idle_table: Tuple[float, ...] = field(init=False, repr=False,
                                          compare=False)
    #: Fully busy power at each level (watts).
    busy_table: Tuple[float, ...] = field(init=False, repr=False,
                                          compare=False)

    def __post_init__(self) -> None:
        if len(self.freqs_ghz) != len(self.voltages):
            raise ValueError("freqs and voltages must align")
        if not self.freqs_ghz:
            raise ValueError("CPU needs at least one operating point")
        if list(self.freqs_ghz) != sorted(self.freqs_ghz):
            raise ValueError("frequency levels must be ascending")
        # Leakage tracks the supply voltage (roughly quadratically), so
        # a lower operating point also cuts the idle floor — this is
        # what makes DVFS a net win rather than race-to-idle always
        # dominating.  ``idle_w`` is the figure at the top level.
        v_max = self.voltages[-1]
        idle = []
        for volt in self.voltages:
            ratio = volt / v_max
            idle.append(self.idle_w * ratio * ratio)
        busy = tuple(
            leak + self.dyn_coeff * freq * volt * volt
            for leak, freq, volt in zip(idle, self.freqs_ghz,
                                        self.voltages))
        object.__setattr__(self, "ops_table", tuple(
            freq * 1.0e9 * self.ipc for freq in self.freqs_ghz))
        object.__setattr__(self, "idle_table", tuple(idle))
        object.__setattr__(self, "busy_table", busy)

    @property
    def levels(self) -> int:
        return len(self.freqs_ghz)

    def ops_per_second(self, level: int) -> float:
        return self.ops_table[level]

    def idle_power(self, level: int) -> float:
        """Static/leakage power at a DVFS level (see ``idle_table``)."""
        return self.idle_table[level]

    def busy_power(self, level: int) -> float:
        return self.busy_table[level]

    def max_power(self) -> float:
        return self.busy_table[-1]


class OndemandGovernor:
    """An ``ondemand``-style DVFS governor.

    Tracks an exponentially weighted utilization and maps it to a
    frequency level: jump to the top level when utilization crosses the
    up-threshold (as Linux ondemand does), otherwise scale the level
    proportionally as utilization decays.  The level is recomputed
    only when the utilization moves (in ``observe``);
    :meth:`select_level` reads the stored value.
    """

    def __init__(self, levels: int, up_threshold: float = 0.8,
                 window_s: float = 0.5) -> None:
        if levels < 1:
            raise ValueError("need at least one level")
        self.levels = levels
        self.up_threshold = up_threshold
        self.window_s = window_s
        self._util = 0.0
        self._level = self._level_for(self._util)

    @property
    def utilization(self) -> float:
        return self._util

    def _level_for(self, util: float) -> int:
        top = self.levels - 1
        if top == 0 or util >= self.up_threshold:
            return top
        scaled = int(util / self.up_threshold * top)
        # max(0, min(top, scaled)), without the two builtin calls.
        return top if scaled > top else scaled if scaled > 0 else 0

    def observe(self, busy: bool, duration_s: float) -> None:
        """Fold a busy/idle interval into the utilization estimate."""
        if duration_s <= 0:
            return
        # Exponential forgetting with the window as time constant.
        alpha = 1.0 - math.exp(-duration_s / self.window_s)
        target = 1.0 if busy else 0.0
        self._util += alpha * (target - self._util)
        self._level = self._level_for(self._util)

    def select_level(self) -> int:
        return self._level


class PerformanceGovernor:
    """Always runs at the highest frequency level."""

    def __init__(self, levels: int) -> None:
        self.levels = levels
        self._util = 1.0

    @property
    def utilization(self) -> float:
        return self._util

    def observe(self, busy: bool, duration_s: float) -> None:
        pass

    def select_level(self) -> int:
        return self.levels - 1


class Cpu:
    """A CPU executing abstract work under a governor."""

    def __init__(self, spec: CpuSpec, governor: str = "ondemand") -> None:
        self.spec = spec
        if governor == "ondemand":
            self.governor = OndemandGovernor(spec.levels)
        elif governor == "performance":
            self.governor = PerformanceGovernor(spec.levels)
        else:
            raise ValueError(f"unknown governor {governor!r}")
        self.current_level = self.governor.select_level()
        self.total_work_units = 0.0

    def execute(self, units: float) -> Tuple[float, float]:
        """Run ``units`` of work; returns ``(duration_s, power_w)``.

        The governor sees the work as a fully busy interval and may
        raise the level for subsequent work.
        """
        if units < 0:
            raise ValueError("work units must be non-negative")
        if units == 0:
            return 0.0, self.spec.idle_w
        governor = self.governor
        level = self.current_level = governor.select_level()
        spec = self.spec
        duration = units * OPS_PER_UNIT / spec.ops_table[level]
        governor.observe(True, duration)
        self.total_work_units += units
        return duration, spec.busy_table[level]

    def idle(self, duration_s: float) -> float:
        """Account an idle interval; returns the idle power draw at the
        level the governor settles on."""
        governor = self.governor
        governor.observe(False, duration_s)
        level = self.current_level = governor.select_level()
        return self.spec.idle_table[level]


# ---------------------------------------------------------------------------
# Specs for the paper's three systems


#: System A: Intel i5 laptop (4 GB RAM, Ubuntu 14.04, Java 1.8).
INTEL_I5 = CpuSpec(
    name="intel-i5",
    freqs_ghz=(0.8, 1.6, 2.4, 3.0),
    voltages=(0.70, 0.85, 1.00, 1.10),
    ipc=4.0,
    idle_w=6.0,
    dyn_coeff=6.5,   # peak ~ 6 + 6.5*3.0*1.21 ≈ 29.6 W package
)

#: System B: Raspberry Pi 2 Model B (BCM2836, 1 GB RAM, Raspbian Jessie).
PI2_BCM2836 = CpuSpec(
    name="pi2-bcm2836",
    freqs_ghz=(0.6, 0.9),
    voltages=(1.20, 1.3125),
    ipc=1.0,
    idle_w=1.1,
    dyn_coeff=1.4,   # peak ~ 1.1 + 1.4*0.9*1.72 ≈ 3.3 W board CPU share
)

#: System C: Nexus 5X (Snapdragon 808, Android 6.0, ART).
SNAPDRAGON_808 = CpuSpec(
    name="snapdragon-808",
    freqs_ghz=(0.38, 0.96, 1.44, 1.82),
    voltages=(0.70, 0.85, 1.00, 1.125),
    ipc=2.0,
    idle_w=0.35,
    dyn_coeff=1.55,  # peak ~ 0.35 + 1.55*1.82*1.27 ≈ 3.9 W SoC
)
