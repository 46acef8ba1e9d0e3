"""Static residual-cost bounds: how much can the residual checks cost?

The elision pass (:mod:`.obligations`) decides *which* checks must run;
this pass bounds *how often* they can run, in the style of Klemen et
al., "An Approach to Static Performance Guarantees for Programs with
Run-time Checks" (see PAPERS.md).  The bound for one site is

    ``firings(site) = local_trips(site) * activations(context)``

where ``local_trips`` is the product of the enclosing loops'
trip-count bounds (exact for counted loops, ω otherwise — recorded by
the obligation walk) and ``activations`` is a whole-program bound on
how many times the site's enclosing body can be entered, computed here
by a fixpoint over the call multigraph the walk records:

* the boot invocation contributes one activation of ``Main.main`` and
  one construction of ``Main``;
* a call site contributes ``activations(caller) * weight`` activations
  to every override the dispatch can reach (and to its method
  attributor), with ``weight`` the caller-side loop-trip product;
* ``new C`` contributes to ``C.<init>`` and every inherited field
  initializer; ``snapshot`` contributes to every reachable class
  attributor;
* any reachable call-graph cycle (recursion) makes the whole strongly
  connected component ω.

Firings are then weighted by an abstract per-firing *depth cost*
(:data:`CHECK_COST`) and rolled up per class and per program — the
static overhead guarantee ``repro analyze`` prints.  With ``--fuel N``
every ω factor is replaced by ``N``: each loop trip and each
activation consumes at least one fuel step, so the fuel budget caps
both factors independently (the product is then a weak but sound
bound).

The same per-site bounds feed the runtime oracle: ``repro profile``
counts observed firings under identical site IDs, and
``static_vs_observed`` flags any residual site that fired more often
than its finite static bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.analysis.modeflow import OMEGA, ONE, ZERO, Bound
from repro.analysis.obligations import RESIDUAL, ProgramAnalyzer

__all__ = ["CHECK_COST", "TRANSIENT_COST", "ClassCost", "CostSummary",
           "activation_counts", "attach_cost_bounds"]

#: Abstract per-firing depth cost of a full (deep) check.  The units
#: reflect the work the interpreter does per firing: a dfall check
#: derives the guard mode and walks the lattice (2), a snapshot bound
#: check re-runs mode resolution plus two lattice walks and may copy
#: the object (3), a mode-case elimination is one table lookup (1).
CHECK_COST: Dict[str, int] = {
    "dfall": 2,
    "snapshot_bound": 3,
    "mcase_elim": 1,
}

#: Under ``--checks transient`` every collapsed check is a single
#: mode-tag comparison, regardless of kind.
TRANSIENT_COST = 1


@dataclass
class ClassCost:
    """Residual-check cost rollup for one class (or the program)."""

    residual_sites: int = 0
    firings: Bound = ZERO
    full_units: Bound = ZERO
    transient_units: Bound = ZERO

    def add_site(self, firings: Bound, cost_units: int) -> None:
        self.residual_sites += 1
        self.firings = self.firings + firings
        self.full_units = self.full_units + firings.scaled(cost_units)
        self.transient_units = (self.transient_units
                                + firings.scaled(TRANSIENT_COST))

    def as_dict(self) -> Dict[str, object]:
        return {
            "residual_sites": self.residual_sites,
            "firings_bound": self.firings.as_json(),
            "full_units_bound": self.full_units.as_json(),
            "transient_units_bound": self.transient_units.as_json(),
        }


@dataclass
class CostSummary:
    """The program-level residual-cost report section."""

    by_class: Dict[str, ClassCost] = field(default_factory=dict)
    program: ClassCost = field(default_factory=ClassCost)
    fuel: Optional[int] = None

    def as_dict(self) -> Dict[str, object]:
        return {
            "unit_costs": {"full": dict(CHECK_COST),
                           "transient": TRANSIENT_COST},
            "fuel": self.fuel,
            "by_class": {name: cost.as_dict()
                         for name, cost in sorted(self.by_class.items())},
            "program": self.program.as_dict(),
        }


# ---------------------------------------------------------------------------
# Activation counts: fixpoint over the recorded call multigraph


def _roots(analyzer: ProgramAnalyzer) -> Dict[str, Bound]:
    """Boot contributions: one ``Main.main`` call plus one ``Main``
    construction (inherited field initializers and the constructor —
    mirrors ``Interpreter.run``)."""
    roots: Dict[str, Bound] = {}
    table = analyzer.table
    if "Main" not in table:
        return roots
    roots["Main.main"] = ONE
    info = table.get("Main")
    for finfo in table.all_fields("Main"):
        if finfo.decl is not None and finfo.decl.init is not None:
            roots[f"{finfo.owner}.<field {finfo.name}>"] = ONE
    if info.decl is not None and info.decl.constructor is not None:
        roots["Main.<init>"] = ONE
    return roots


def _strongly_connected(nodes: List[str],
                        succ: Dict[str, List[str]]) -> List[List[str]]:
    """Iterative Tarjan.  SCCs are emitted callees-first (reverse
    topological order of the condensation)."""
    index: Dict[str, int] = {}
    low: Dict[str, int] = {}
    on_stack: Dict[str, bool] = {}
    stack: List[str] = []
    sccs: List[List[str]] = []
    counter = [0]

    for start in nodes:
        if start in index:
            continue
        work: List[Tuple[str, int]] = [(start, 0)]
        while work:
            node, child_i = work[-1]
            if child_i == 0:
                index[node] = low[node] = counter[0]
                counter[0] += 1
                stack.append(node)
                on_stack[node] = True
            advanced = False
            children = succ.get(node, ())
            for i in range(child_i, len(children)):
                child = children[i]
                if child not in index:
                    work[-1] = (node, i + 1)
                    work.append((child, 0))
                    advanced = True
                    break
                if on_stack.get(child):
                    low[node] = min(low[node], index[child])
            if advanced:
                continue
            work.pop()
            if low[node] == index[node]:
                scc: List[str] = []
                while True:
                    member = stack.pop()
                    on_stack[member] = False
                    scc.append(member)
                    if member == node:
                        break
                sccs.append(scc)
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
    return sccs


def activation_counts(analyzer: ProgramAnalyzer) -> Dict[str, Bound]:
    """``{context: Bound}`` — how many times each body can be entered
    in one program run."""
    roots = _roots(analyzer)
    edges = analyzer.edges
    nodes: List[str] = []
    seen = set()
    for _, ctx in analyzer._iter_program_bodies():
        if ctx not in seen:
            seen.add(ctx)
            nodes.append(ctx)
    for src, dst, _ in edges:
        for ctx in (src, dst):
            if ctx not in seen:
                seen.add(ctx)
                nodes.append(ctx)
    for ctx in roots:
        if ctx not in seen:
            seen.add(ctx)
            nodes.append(ctx)

    succ: Dict[str, List[str]] = {}
    incoming: Dict[str, List[Tuple[str, Bound]]] = {}
    self_cyclic = set()
    for src, dst, weight in edges:
        succ.setdefault(src, []).append(dst)
        incoming.setdefault(dst, []).append((src, weight))
        if src == dst:
            self_cyclic.add(src)

    sccs = _strongly_connected(nodes, succ)
    scc_id: Dict[str, int] = {}
    for i, scc in enumerate(sccs):
        for node in scc:
            scc_id[node] = i

    counts: Dict[str, Bound] = {node: ZERO for node in nodes}
    # Callers before callees: reverse of Tarjan's emission order.
    for scc in reversed(sccs):
        for node in scc:
            total = roots.get(node, ZERO)
            for src, weight in incoming.get(node, ()):
                if scc_id[src] != scc_id[node]:
                    total = total + counts[src] * weight
            counts[node] = total
        cyclic = len(scc) > 1 or scc[0] in self_cyclic
        if cyclic and any(counts[node] != ZERO for node in scc):
            # A reachable recursion: no static activation bound.
            for node in scc:
                counts[node] = OMEGA
    return counts


# ---------------------------------------------------------------------------
# Attaching bounds to sites


def attach_cost_bounds(analyzer: ProgramAnalyzer,
                       fuel: Optional[int] = None) -> CostSummary:
    """Annotate every recorded site with its activation/firings bounds
    and return the per-class/program rollup.  ``fuel`` (if given)
    replaces ω factors: a loop can trip and a body can activate at
    most once per fuel step, so each factor is independently capped by
    the budget."""
    counts = activation_counts(analyzer)
    summary = CostSummary(fuel=fuel)
    for site in analyzer.sites:
        acts = counts.get(site.context, OMEGA)
        trips = site.local_trips
        capped = False
        if fuel is not None:
            if not trips.finite:
                trips, capped = Bound(fuel), True
            if not acts.finite:
                acts, capped = Bound(fuel), True
        site.activations = acts
        site.firings = trips * acts
        site.fuel_capped = capped
        site.cost_units = CHECK_COST.get(site.kind, 1)
        if site.status == RESIDUAL:
            cls_cost = summary.by_class.setdefault(site.owner_class,
                                                   ClassCost())
            cls_cost.add_site(site.firings, site.cost_units)
            summary.program.add_site(site.firings, site.cost_units)
    return summary
