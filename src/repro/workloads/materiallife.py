"""materiallife: an animated Conway's Game of Life (System C).

A genuine Game of Life over a sparse live-cell set.  The workload mode
is attributed by the simulation population (1000 / 2000 / 5000 seeded
cells) and the QoS knob is the animation frame rate (5 / 10 / 15 fps):
each frame steps the automaton (work proportional to live cells) and
renders the board, idling the rest of the frame budget.  Fixed one-
minute session, so boot modes differ in power.
"""

from __future__ import annotations

import random
from typing import Set, Tuple

from repro.workloads.base import ES, FT, MG, TaskResult, Workload

RUN_SECONDS = 60.0

#: The in-memory board holds 1/_POP_SCALE of the paper's population;
#: charges are scaled back up.
_POP_SCALE = 10.0

_Cell = Tuple[int, int]

_NEIGHBOURS = [(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1),
               (1, -1), (1, 0), (1, 1)]


def life_step(cells: Set[_Cell]) -> Set[_Cell]:
    """One generation of Conway's Game of Life on a sparse board."""
    counts: dict = {}
    for (x, y) in cells:
        for dx, dy in _NEIGHBOURS:
            key = (x + dx, y + dy)
            counts[key] = counts.get(key, 0) + 1
    fresh: Set[_Cell] = set()
    for cell, count in counts.items():
        if count == 3 or (count == 2 and cell in cells):
            fresh.add(cell)
    return fresh


def seed_board(population: int, seed: int) -> Set[_Cell]:
    rng = random.Random(seed * 11 + population)
    side = max(20, int((population * 4) ** 0.5))
    cells: Set[_Cell] = set()
    while len(cells) < population:
        cells.add((rng.randrange(side), rng.randrange(side)))
    return cells


class MaterialLife(Workload):
    name = "materiallife"
    description = "simulation rendering"
    systems = ("C",)
    cloc = 1_705
    ent_changes = 63

    workload_kind = "simulation population"
    workload_labels = {ES: "1000", MG: "2000", FT: "5000"}
    qos_kind = "frame rate"
    qos_labels = {ES: "5", MG: "10", FT: "15"}

    # One counted op = one neighbour update / rendered cell.
    work_scale = 3.2e-4

    time_fixed = True

    _SIZES = {ES: 1_000, MG: 2_000, FT: 5_000}
    _QOS = {ES: 5.0, MG: 10.0, FT: 15.0}
    _THRESHOLDS = {MG: 1_500, FT: 3_000}

    def execute(self, platform, size: float, qos: float,
                seed: int = 0) -> TaskResult:
        fps = max(1.0, float(qos))
        cells = seed_board(max(8, int(size / _POP_SCALE)), seed)
        side = max(20, int((size / _POP_SCALE * 4) ** 0.5))
        canvas_cells = float(side * side)
        start = platform.now()
        generations = 0
        peak = len(cells)
        # Step in one-second batches: fps generations per batch.
        for _ in range(int(RUN_SECONDS)):
            batch_start = platform.now()
            for _ in range(int(fps)):
                before = len(cells)
                cells = life_step(cells)
                generations += 1
                peak = max(peak, len(cells))
                # Automaton update + full-canvas redraw per frame,
                # scaled back to the full population.
                self.charge(platform,
                            (before * 9.0 + len(cells) * 4.0
                             + canvas_cells * 3.0) * _POP_SCALE)
            if not cells:
                cells = seed_board(max(8, int(size / _POP_SCALE)),
                                   seed + generations)
            busy = platform.now() - batch_start
            idle = 1.0 - busy
            if idle > 0:
                platform.sleep(idle)
        return TaskResult(units_done=generations,
                          detail={"live_cells": float(len(cells)),
                                  "peak_cells": float(peak)})
