"""pagerank: graph vertex ranking over web-graph snapshots.

The paper ranks the WebGraph datasets cnr-2000 (325,557 nodes),
eswiki-2013 (972,933) and frwiki-2013 (1,352,053); the QoS knob is the
convergence threshold of the power iteration (0.01 / 0.001 / 0.0001 L1
change per iteration).  The kernel runs a genuine power iteration on a
seeded scale-free synthetic graph 1/100th the size and charges the
platform per traversed edge at 100x, preserving the iteration-count
dynamics that the QoS knob controls.
"""

from __future__ import annotations

import random
from typing import List

from repro.workloads.base import ES, FT, MG, TaskResult, Workload

#: Real in-memory graph size = paper size / _SCALE.
_SCALE = 100.0


def _build_graph(nodes: int, seed: int) -> List[List[int]]:
    """A seeded preferential-attachment digraph: ``out[i]`` lists i's
    out-neighbours.  Skewed in-degree like real web graphs."""
    rng = random.Random(seed * 31337 + nodes)
    out: List[List[int]] = [[] for _ in range(nodes)]
    targets: List[int] = [0]
    for node in range(1, nodes):
        degree = 1 + rng.randrange(4)
        for _ in range(degree):
            # Preferential attachment: sample from the target multiset.
            out[node].append(targets[rng.randrange(len(targets))])
        targets.extend(out[node])
        targets.append(node)
    # Web graphs are cyclic: add forward links so the chain's mixing
    # rate tracks the damping factor rather than collapsing (a pure
    # preferential-attachment digraph is acyclic and converges
    # unrealistically fast).
    for node in range(nodes):
        while rng.random() < 0.6:
            out[node].append(rng.randrange(nodes))
            break
    return out


class PageRank(Workload):
    name = "pagerank"
    description = "graph vertex ranking"
    systems = ("A",)
    cloc = 157
    ent_changes = 49

    workload_kind = "graph (number nodes)"
    workload_labels = {ES: "cnr-2000 (325557)", MG: "eswiki-2013 (972933)",
                       FT: "frwiki-2013 (1352053)"}
    qos_kind = "minimum change"
    qos_labels = {ES: "0.01", MG: "0.001", FT: "0.0001"}

    # One counted op = one edge visit on the full-size graph.
    work_scale = 1.5e-2

    supports_temperature = True
    e3_units = 240

    _SIZES = {ES: 325_557, MG: 972_933, FT: 1_352_053}
    _QOS = {ES: 0.01, MG: 0.001, FT: 0.0001}
    _THRESHOLDS = {MG: 400_000, FT: 1_000_000}

    def execute(self, platform, size: float, qos: float,
                seed: int = 0) -> TaskResult:
        nodes = max(10, int(size / _SCALE))
        graph = _build_graph(nodes, seed)
        edges = sum(len(adj) for adj in graph)
        damping = 0.93
        rank = [1.0 / nodes] * nodes
        threshold = float(qos)
        iterations = 0
        delta = 1.0
        # Loading the (full-size) edge list.
        platform.io_bytes(size * 8.0)
        while delta > threshold and iterations < 200:
            fresh = [(1.0 - damping) / nodes] * nodes
            for node, adj in enumerate(graph):
                if not adj:
                    continue
                share = damping * rank[node] / len(adj)
                for target in adj:
                    fresh[target] += share
            delta = sum(abs(a - b) for a, b in zip(fresh, rank))
            rank = fresh
            iterations += 1
            # Charge one full-size sweep: scale the counted edges back up.
            self.charge(platform, edges * _SCALE)
        top = max(range(nodes), key=rank.__getitem__)
        return TaskResult(units_done=iterations,
                          detail={"iterations": float(iterations),
                                  "delta": delta,
                                  "top_rank": rank[top]})

    #: Cached unit-of-work graph (the E3 run sweeps one graph).
    _unit_graph: "List[List[int]]" = None

    def execute_unit(self, platform, qos: float, seed: int = 0) -> None:
        """E3 unit: one power-iteration sweep over a graph shard."""
        nodes = max(10, int(self._SIZES[FT] / _SCALE / 16))
        if type(self)._unit_graph is None or \
                len(type(self)._unit_graph) != nodes:
            type(self)._unit_graph = _build_graph(nodes, 7)
        graph = type(self)._unit_graph
        edges = sum(len(adj) for adj in graph)
        rank = [1.0 / nodes] * nodes
        fresh = [0.15 / nodes] * nodes
        for node, adj in enumerate(graph):
            if not adj:
                continue
            share = 0.85 * rank[node] / len(adj)
            for target in adj:
                fresh[target] += share
        self.charge(platform, edges * _SCALE * 4.0)
