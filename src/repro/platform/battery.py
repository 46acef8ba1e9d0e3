"""Battery model: a coulomb counter over the simulation clock.

The paper queries battery state through ACPI (System A), a simulated
battery (System B — "the battery level change is simulated", section 5),
and Android's ``BatteryManager`` (System C).  All three reduce to the
same model here: a capacity in joules drained by the platform's power
draw.  The experiment harness pins boot modes at the paper's
40%/70%/90% levels through the starting level
(``make_platform(..., battery_fraction=...)``).
"""

from __future__ import annotations


class Battery:
    """An energy store with level queries and drain accounting."""

    def __init__(self, capacity_joules: float,
                 fraction: float = 1.0) -> None:
        if capacity_joules <= 0:
            raise ValueError("battery capacity must be positive")
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("battery fraction must be in [0, 1]")
        self.capacity_joules = float(capacity_joules)
        self._charge = self.capacity_joules * fraction

    # ------------------------------------------------------------------

    @property
    def charge_joules(self) -> float:
        return self._charge

    def fraction(self) -> float:
        """Remaining battery as a fraction of capacity."""
        return self._charge / self.capacity_joules

    def set_fraction(self, fraction: float) -> None:
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("battery fraction must be in [0, 1]")
        self._charge = self.capacity_joules * fraction

    def drain(self, joules: float) -> None:
        if joules < 0:
            raise ValueError("cannot drain negative energy")
        charge = self._charge - joules
        self._charge = charge if charge > 0.0 else 0.0

    @property
    def empty(self) -> bool:
        return self._charge <= 0.0

    def __repr__(self) -> str:
        pct = 100.0 * self._charge / self.capacity_joules
        return f"Battery({pct:.1f}% of {self.capacity_joules:.0f} J)"
