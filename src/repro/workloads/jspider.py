"""jspider: a web crawler — the paper's running example.

The kernel crawls a synthetic site graph: the seed site exposes a
number of resources (Figure 7's attribution knob: 89/1058/1967), each
resource links to a few nested resources, and the crawler walks the
graph breadth-first down to the QoS spidering depth (3/4/5).  Each
fetched resource costs network bytes and parsing work — the same
I/O-heavy profile as the real jspider.
"""

from __future__ import annotations

import random
from typing import Dict, List

from repro.workloads.base import ES, FT, MG, TaskResult, Workload


class _SiteGraph:
    """A deterministic synthetic website."""

    def __init__(self, resources: int, seed: int) -> None:
        self.rng = random.Random(seed * 1_000_003 + resources)
        self.resources = resources
        self._links: Dict[str, List[str]] = {}
        self._sizes: Dict[str, int] = {}

    def root_urls(self) -> List[str]:
        return [f"/r{i}" for i in range(self.resources)]

    def links_of(self, url: str) -> List[str]:
        if url not in self._links:
            depth = url.count("/")
            # Shallow pages link richly; deep pages only occasionally
            # spawn further resources (a long, thin tail).
            fanout = max(0, 3 - depth)
            if self.rng.random() < 0.45:
                fanout += 1
            self._links[url] = [f"{url}/c{i}" for i in range(fanout)]
        return self._links[url]

    def size_of(self, url: str) -> int:
        if url not in self._sizes:
            self._sizes[url] = 2_000 + self.rng.randrange(30_000)
        return self._sizes[url]


class JSpider(Workload):
    name = "jspider"
    description = "web crawler"
    systems = ("A",)
    cloc = 9194
    ent_changes = 49

    workload_kind = "site resources"
    workload_labels = {ES: "89", MG: "1058", FT: "1967"}
    qos_kind = "spidering depth"
    qos_labels = {ES: "3", MG: "4", FT: "5"}

    # One counted op = one parsed byte-equivalent.
    work_scale = 5.0e-4

    _SIZES = {ES: 89, MG: 1058, FT: 1967}
    _QOS = {ES: 3, MG: 4, FT: 5}
    _THRESHOLDS = {MG: 200, FT: 1200}

    def execute(self, platform, size: float, qos: float,
                seed: int = 0) -> TaskResult:
        site = _SiteGraph(max(1, int(size)), seed)
        max_depth = max(1, int(qos))
        frontier = site.root_urls()
        visited = 0
        fetched_bytes = 0
        for depth in range(max_depth):
            next_frontier: List[str] = []
            for url in frontier:
                body_size = site.size_of(url)
                platform.net_bytes(body_size)
                # Parse the page: link extraction + rule filtering.
                self.charge(platform, body_size * 2.0)
                fetched_bytes += body_size
                visited += 1
                next_frontier.extend(site.links_of(url))
            frontier = next_frontier
            if not frontier:
                break
        platform.io_bytes(fetched_bytes * 0.2)  # persist the index
        return TaskResult(units_done=visited,
                          detail={"fetched_bytes": float(fetched_bytes),
                                  "depth": float(max_depth)})
