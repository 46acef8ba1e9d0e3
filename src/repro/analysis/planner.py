"""The elision planner: turn ``elided`` verdicts into AST annotations.

The execution engines read two per-node flags (class-level defaults
on the AST nodes, following the ``resolved_kind`` idiom):

* ``MethodCall.elide_dfall`` — skip the dynamic waterfall check in
  ``Interpreter._invoke``;
* ``Snapshot.elide_bound`` — skip the bound check in
  ``Interpreter._snapshot_value``.

The register-bytecode VM carries the same flags into the bytecode as
**operands**: an annotated call's ``CALL`` instruction holds a
``CallSite`` whose ``elide_dfall`` is set, an annotated ``SNAPSHOT``
its ``elide`` operand, and the VM and JIT skip the check they name
(``repro disasm`` shows the handoff; see ``docs/VM.md``).

Both flags are inert unless ``InterpOptions.elide_checks`` is on and
the run is neither ``silent`` nor ``baseline`` (those options change
the dynamic semantics the proofs rely on; the interpreter gates them
out, see ``interp.py``).  Planning is deterministic and idempotent for
a given ``CheckedProgram``.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

from repro.analysis.cost import attach_cost_bounds
from repro.analysis.obligations import (DFALL, ELIDED, RESIDUAL,
                                        SNAPSHOT_BOUND, CheckSite,
                                        ProgramAnalyzer)
from repro.analysis.report import AnalysisReport
from repro.lang.typechecker import CheckedProgram

__all__ = ["analyze_program", "plan_elisions", "apply_plan",
           "apply_assignment"]


def apply_plan(sites: List[CheckSite]) -> int:
    """Annotate the AST for every ``elided`` site; returns the count."""
    applied = 0
    for site in sites:
        if site.status != ELIDED or site.node is None:
            continue
        if site.kind == DFALL:
            site.node.elide_dfall = True
            applied += 1
        elif site.kind == SNAPSHOT_BOUND:
            site.node.elide_bound = True
            applied += 1
    return applied


def apply_assignment(sites: List[CheckSite],
                     pinned: Iterable[str]) -> int:
    """Annotate the AST as if ``pinned`` classes were statically moded.

    This is the advisor's "what if" operator (``repro advise``): pinning
    a ``?``-moded class to a static mode discharges exactly the residual
    obligations *targeting* it — its dfall guards and snapshot bound
    checks become typechecker facts, so the engines may skip them.  The
    attributor still runs (the class still adapts); only the checks that
    re-verify its mode at use sites are discharged.  Sites the planner
    already proved elidable are annotated too, same as ``apply_plan``.

    Returns the number of AST annotations applied.  Like ``apply_plan``,
    the flags are only read when ``InterpOptions.elide_checks`` is on.
    """
    pinned = set(pinned)
    applied = apply_plan(sites)
    for site in sites:
        if site.status != RESIDUAL or site.node is None:
            continue
        if site.owner_class not in pinned:
            continue
        if site.kind == DFALL:
            site.node.elide_dfall = True
            applied += 1
        elif site.kind == SNAPSHOT_BOUND:
            site.node.elide_bound = True
            applied += 1
    return applied


def analyze_program(checked: CheckedProgram, *, annotate: bool = False,
                    file: str = None,
                    fuel: Optional[int] = None) -> AnalysisReport:
    """Run the obligation + mode-flow + residual-cost passes.

    With ``annotate=True`` the elision plan is also applied to the AST
    (what ``plan_elisions`` and ``repro run`` do); without it the
    report is purely informational (what ``repro analyze`` does).
    ``fuel`` caps ω cost-bound factors by the runtime fuel budget
    (``repro analyze --fuel``).
    """
    analyzer = ProgramAnalyzer(checked)
    sites = analyzer.analyze()
    cost = attach_cost_bounds(analyzer, fuel=fuel)
    if annotate:
        apply_plan(sites)
    return AnalysisReport(sites=sites, file=file, cost=cost)


def plan_elisions(checked: CheckedProgram) -> AnalysisReport:
    """Analyze and annotate in one step (the ``repro run`` path)."""
    return analyze_program(checked, annotate=True)
