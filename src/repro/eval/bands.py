"""Section 5's data-collection bands: run-to-run relative standard
deviation of every Figure 9 system/benchmark pair.

The paper runs each experiment 11 times and discards the first (JIT
warm-up) on Systems A and B, and runs it 10 times on System C.  It
reports a relative standard deviation within 2% for 93% of System A
experiments (3% for 99%), within 2% for all of System B, and higher on
System C (within 5% for 94.7%).  Each pair here repeats one E1 cell,
the full_throttle boot running the managed workload, under that
protocol via :func:`~repro.eval.runner.repeated_energies`; the spread
comes from the platforms' per-run speed jitter, meter noise and (on
System C) replay jitter.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import List, Optional

from repro.eval.config import e1_benchmarks
from repro.eval.parallel import EpisodeTask
from repro.eval.runner import repeated_energies
from repro.workloads.base import FT, MG

__all__ = ["BAND_BOOT", "BAND_WORKLOAD", "RETAINED_RUNS", "StddevBand",
           "stddev_bands"]

#: The E1 cell every pair repeats: boot mode and workload mode.
BAND_BOOT, BAND_WORKLOAD = FT, MG

#: Runs kept per pair; Systems A and B run one more and discard it.
RETAINED_RUNS = 10


@dataclass
class StddevBand:
    system: str
    benchmark: str
    #: Whether the protocol ran one extra warm-up run and dropped it.
    discarded_first: bool
    #: Energies (J) of the retained runs, in seed order.
    energies_j: List[float]

    @property
    def rel_std(self) -> float:
        """Population standard deviation over the mean."""
        return (statistics.pstdev(self.energies_j)
                / statistics.mean(self.energies_j))


def stddev_bands(jobs: Optional[int] = None) -> List[StddevBand]:
    """Every Figure 9 pair under the paper's repeat protocol.

    Run ``i`` of a pair uses seed ``i``; ``jobs`` fans each pair's runs
    out over a process pool, bit-identical to serial.
    """
    bands: List[StddevBand] = []
    for system in ("A", "B", "C"):
        discard = system != "C"
        for name in e1_benchmarks(system):
            template = EpisodeTask(
                kind="e1", key=(system, name), benchmark=name,
                params=dict(system=system, boot_mode=BAND_BOOT,
                            workload_mode=BAND_WORKLOAD))
            energies = repeated_energies(template, times=RETAINED_RUNS,
                                         discard_first=discard, jobs=jobs)
            bands.append(StddevBand(system=system, benchmark=name,
                                    discarded_first=discard,
                                    energies_j=energies))
    return bands
