"""Common structure for the paper's 15 benchmark applications.

Every benchmark (Figure 6) is modelled as a :class:`Workload`: a real —
if miniature — implementation of the application's energy-relevant
kernel, parameterized exactly as Figure 7 parameterizes it:

* a *workload attribution*: the input-size knob whose thresholds the
  task attributor uses to pick the workload mode (columns 2-5);
* a *QoS adjustment*: the quality-of-service knob selected per mode
  (columns 6-9).

Kernels perform genuine computation on scaled-down inputs and charge
the platform simulator ``work_scale`` abstract units per counted
operation, so System-A energy magnitudes land in the paper's ranges
while wall-clock cost stays laptop-friendly.  The scaling is uniform
within a benchmark, so every *relative* comparison (the quantity all
the paper's figures report) is preserved.

The E1/E2 programs themselves (agents, tasks, snapshots, mode cases)
are assembled generically in :mod:`repro.eval`; this module only knows
about inputs, knobs, and kernels.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, Tuple

from repro.core.modes import Mode, ModeLattice

#: Battery-mode names, least to greatest.
ES, MG, FT = "energy_saver", "managed", "full_throttle"
BATTERY_MODES = (ES, MG, FT)

#: Temperature-mode names, least to greatest (cooler = greater).
OVERHEATING, HOT, SAFE = "overheating", "hot", "safe"
THERMAL_MODES = (OVERHEATING, HOT, SAFE)

#: The declared battery lattice (``es <= mg <= ft``) — the same chain
#: :meth:`repro.runtime.embedded.EntRuntime.standard` checks against.
BATTERY_LATTICE = ModeLattice.linear(list(BATTERY_MODES))

#: The declared thermal lattice (``overheating <= hot <= safe``).
THERMAL_LATTICE = ModeLattice.linear(list(THERMAL_MODES))


def mode_leq(lesser, greater, lattice: ModeLattice = None) -> bool:
    """``lesser <= greater`` in a declared mode lattice.

    Episode classification (waterfall violations, monotone drain
    trajectories) must use the *same* order the runtime enforces, so
    this helper derives the comparison from :meth:`ModeLattice.leq`
    over the declared lattice (default: :data:`BATTERY_LATTICE`)
    instead of a hard-coded rank table.  Accepts mode names or
    :class:`Mode` instances.
    """
    lattice = lattice if lattice is not None else BATTERY_LATTICE
    lesser = lesser if isinstance(lesser, Mode) else Mode(str(lesser))
    greater = greater if isinstance(greater, Mode) else Mode(str(greater))
    return lattice.leq(lesser, greater)


@dataclass
class TaskResult:
    """Outcome of one kernel execution."""

    #: Application-specific progress metric (pixels, pages, ranks, ...).
    units_done: float = 0.0
    #: Free-form quality metrics for QoS reporting.
    detail: Dict[str, float] = field(default_factory=dict)


class Workload(abc.ABC):
    """One benchmark application: its Figure 7 row plus its kernel.

    Subclasses give the Figure 6 metadata, the kernel (:meth:`execute`,
    the only abstract method) and their Figure 7 row as three tables
    keyed by battery mode: ``_SIZES`` (each mode's input-size
    parameter), ``_QOS`` (each mode's QoS knob value) and
    ``_THRESHOLDS`` (the task attributor's two size cutoffs,
    ``{MG: ..., FT: ...}``).  :meth:`task_size`, :meth:`attribute`
    and :meth:`qos_value` read those tables.
    """

    #: Benchmark name (Figure 6, column 1).
    name: str = ""
    #: One-line description (Figure 6, column 2).
    description: str = ""
    #: Systems the benchmark runs on (Figure 6, column 3).
    systems: Tuple[str, ...] = ("A",)
    #: Original code size and the ENT diff size (Figure 6).
    cloc: int = 0
    ent_changes: int = 0

    #: Figure 7: workload attribution label and per-mode settings.
    workload_kind: str = ""
    workload_labels: Dict[str, str] = {}
    #: Figure 7: QoS knob label and per-mode settings.
    qos_kind: str = ""
    qos_labels: Dict[str, str] = {}

    #: Abstract work units charged per counted kernel operation.
    work_scale: float = 1.0

    #: True for workloads that run for a fixed duration (Pi and Android
    #: benchmarks): savings come from power, not time (section 6.2).
    time_fixed: bool = False

    #: E3 support: number of work units and whether the benchmark has a
    #: distinct unit-of-work suitable for temperature casing.
    supports_temperature: bool = False
    e3_units: int = 40

    # ------------------------------------------------------------------

    #: Figure 7 row, keyed by battery mode.  Declared without values,
    #: so a workload that omits one fails at first use.
    _SIZES: Dict[str, float]
    _QOS: Dict[str, float]
    _THRESHOLDS: Dict[str, float]

    def task_size(self, workload_mode: str) -> float:
        """The Figure 7 input-size parameter for a workload mode."""
        return self._SIZES[workload_mode]

    def attribute(self, size: float) -> str:
        """The task attributor: classify an input size into a mode.

        A size strictly above a cutoff is in that cutoff's mode, so
        ``attribute(task_size(m)) == m`` for every mode exactly when
        ``task_size(ES) <= t[MG] < task_size(MG) <= t[FT] <
        task_size(FT)`` for ``t = _THRESHOLDS``.
        """
        thresholds = self._THRESHOLDS
        if size > thresholds[FT]:
            return FT
        if size > thresholds[MG]:
            return MG
        return ES

    def qos_value(self, qos_mode: str) -> float:
        """The Figure 7 QoS knob value for a mode."""
        return self._QOS[qos_mode]

    @abc.abstractmethod
    def execute(self, platform, size: float, qos: float,
                seed: int = 0) -> TaskResult:
        """Run the kernel: real computation plus platform accounting."""

    def execute_unit(self, platform, qos: float, seed: int = 0) -> None:
        """One E3 unit of work (only for ``supports_temperature``)."""
        raise NotImplementedError(
            f"{self.name} has no unit-of-work decomposition")

    # ------------------------------------------------------------------

    def charge(self, platform, operations: float) -> None:
        """Charge ``operations`` counted kernel operations as CPU work."""
        if operations > 0:
            platform.cpu_work(operations * self.work_scale)

    def default_qos_mode(self) -> str:
        """E1 runs at the 'default' QoS (the managed column of Fig 7)."""
        return MG

    def describe(self) -> Dict[str, str]:
        return {
            "name": self.name,
            "description": self.description,
            "systems": ",".join(self.systems),
            "cloc": str(self.cloc),
            "ent_changes": str(self.ent_changes),
            "workload": self.workload_kind,
            "qos": self.qos_kind,
        }


def battery_boot_mode(battery_fraction: float) -> str:
    """The paper's boot-mode attributor thresholds (section 6.1).

    Boot modes energy_saver / managed / full_throttle are set at
    battery levels of 40%, 70% and 90% respectively; the attributor's
    cutoffs are 50% and 75% (Listing 1).
    """
    if battery_fraction >= 0.75:
        return FT
    if battery_fraction >= 0.50:
        return MG
    return ES


def temperature_boot_mode(celsius: float) -> str:
    """E3 thresholds: safe below 60C, hot 60-65C, overheating above."""
    if celsius < 60.0:
        return SAFE
    if celsius <= 65.0:
        return HOT
    return OVERHEATING


#: E3 sleep intervals (milliseconds) per thermal mode (section 6.2).
E3_SLEEP_MS = {OVERHEATING: 1000.0, HOT: 250.0, SAFE: 0.0}

#: Battery levels that pin each boot mode (section 6.1).
BOOT_BATTERY_LEVELS = {ES: 0.40, MG: 0.70, FT: 0.90}
