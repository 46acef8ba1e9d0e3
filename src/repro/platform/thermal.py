"""Lumped-RC CPU thermal model.

Die temperature follows a first-order response to dissipated power:

    dT/dt = (T_steady(P) - T) / tau,   T_steady(P) = T_ambient + R_th * P

which yields the behaviour Figure 11 depends on: under sustained load
the temperature climbs towards a power-dependent plateau, and sleeping
(idle power) cools the die back down.  The closed-form exponential step
is used so integration is exact for piecewise-constant power.
"""

from __future__ import annotations

import math


class ThermalModel:
    """First-order thermal response of a CPU package."""

    def __init__(self, ambient_c: float = 35.0,
                 r_th_c_per_w: float = 1.2,
                 tau_s: float = 25.0,
                 initial_c: float = None) -> None:
        if r_th_c_per_w <= 0 or tau_s <= 0:
            raise ValueError("thermal resistance and tau must be positive")
        self.ambient_c = float(ambient_c)
        self.r_th = float(r_th_c_per_w)
        self.tau = float(tau_s)
        self._temp = float(initial_c if initial_c is not None else ambient_c)

    @property
    def temperature_c(self) -> float:
        return self._temp

    def steady_state(self, power_w: float) -> float:
        """Equilibrium temperature under constant ``power_w``."""
        return self.ambient_c + self.r_th * power_w

    def step(self, power_w: float, duration_s: float) -> float:
        """Advance the model ``duration_s`` seconds at constant power.

        Returns the new temperature.  Uses the exact exponential solution
        of the first-order ODE, so step size does not affect accuracy.
        """
        if duration_s < 0:
            raise ValueError("duration must be non-negative")
        if duration_s == 0:
            return self._temp
        # steady_state(power_w), inline: this runs on every interval.
        target = self.ambient_c + self.r_th * power_w
        decay = math.exp(-duration_s / self.tau)
        self._temp = target + (self._temp - target) * decay
        return self._temp

    def time_to_reach(self, power_w: float, threshold_c: float) -> float:
        """Seconds of constant ``power_w`` until ``threshold_c``.

        Returns ``inf`` if the steady state never reaches the threshold
        (or 0 if already there).  Used by tests and by E3 workload sizing.
        """
        target = self.steady_state(power_w)
        if self._temp >= threshold_c:
            return 0.0
        if target <= threshold_c:
            return math.inf
        ratio = (target - threshold_c) / (target - self._temp)
        return -self.tau * math.log(ratio)

    def __repr__(self) -> str:
        return (f"ThermalModel(T={self._temp:.2f}C, ambient="
                f"{self.ambient_c}C, R={self.r_th}C/W, tau={self.tau}s)")
