"""batik: an SVG rasterizer (DaCapo).

The kernel rasterizes a deterministic synthetic vector document —
circles, rectangles and triangles whose count tracks the input file
size (16 KB / 261 KB / 2 MB) — onto a raster grid whose resolution is
the QoS knob (512x512 / 1024x1024 / 2048x2048; we rasterize a 1/8-scale
grid and charge full-size coverage-test cost).  batik is the paper's
lowest-energy System-A benchmark (< 10 J) and exhibits the highest
relative deviation, which the harness reproduces.
"""

from __future__ import annotations

import random
from typing import List, Tuple

from repro.workloads.base import ES, FT, MG, TaskResult, Workload

#: Linear raster scale (areas scale by the square).
_GRID_SCALE = 8.0

#: Approximate bytes of SVG text per shape.
_BYTES_PER_SHAPE = 160.0

_Shape = Tuple[str, float, float, float]  # kind, cx, cy, extent


def _gen_document(file_bytes: float, seed: int) -> List[_Shape]:
    count = max(1, int(file_bytes / _BYTES_PER_SHAPE / 16.0))
    rng = random.Random(seed * 97 + count)
    kinds = ("circle", "rect", "tri")
    return [(kinds[rng.randrange(3)], rng.random(), rng.random(),
             0.02 + rng.random() * 0.12) for _ in range(count)]


def _covers(shape: _Shape, x: float, y: float) -> bool:
    kind, cx, cy, extent = shape
    dx, dy = x - cx, y - cy
    if kind == "circle":
        return dx * dx + dy * dy <= extent * extent
    if kind == "rect":
        return abs(dx) <= extent and abs(dy) <= extent * 0.7
    # Axis-aligned isoceles triangle.
    return 0.0 <= dy <= extent and abs(dx) <= (extent - dy) * 0.8


class Batik(Workload):
    name = "batik"
    description = "rasterizer"
    systems = ("A",)
    cloc = 179_284
    ent_changes = 225

    workload_kind = "file size"
    workload_labels = {ES: "16KB", MG: "261KB", FT: "2MB"}
    qos_kind = "image resolution"
    qos_labels = {ES: "512x512", MG: "1024x1024", FT: "2048x2048"}

    # One counted op = one full-size coverage test; batik is tiny
    # (< 10 J in the paper), so the scale is small.
    work_scale = 8.0e-6

    _SIZES = {ES: 16 << 10, MG: 261 << 10, FT: 2 << 20}
    _QOS = {ES: 512, MG: 1024, FT: 2048}
    _THRESHOLDS = {MG: 100 << 10, FT: 1 << 20}

    def execute(self, platform, size: float, qos: float,
                seed: int = 0) -> TaskResult:
        shapes = _gen_document(size, seed)
        resolution = int(qos)
        grid = max(8, int(resolution / _GRID_SCALE))
        platform.io_bytes(size)  # read the SVG source
        # XML parse + CSS/style resolution: proportional to file size
        # and independent of the output resolution.
        self.charge(platform, size * 117.0)
        covered = 0
        tests = 0
        step = 1.0 / grid
        for row in range(grid):
            y = (row + 0.5) * step
            for col in range(grid):
                x = (col + 0.5) * step
                for shape in shapes:
                    tests += 1
                    if _covers(shape, x, y):
                        covered += 1
                        break
        # Full-size tests = scaled tests * (grid scale)^2.
        self.charge(platform, tests * _GRID_SCALE * _GRID_SCALE)
        platform.io_bytes(resolution * resolution * 4.0)  # write the PNG
        return TaskResult(units_done=grid * grid,
                          detail={"coverage": covered / (grid * grid),
                                  "shapes": float(len(shapes))})
