"""ent-lint: static checking for embedded-ENT Python code.

The embedded runtime checks the waterfall invariant *dynamically*.
This module recovers a useful slice of ENT's *static* half for Python
host code — the part a mypy plugin would provide, without the plugin
machinery.  It analyzes a module's source with :mod:`ast` and reports:

* **E001 message-before-snapshot** — a variable bound to a dynamic-class
  construction (``x = Agent(...)``) is messaged before any
  ``rt.snapshot(x)`` rebinds or tags it (the static error
  "cannot message an object of dynamic mode; snapshot it first").
* **E002 static waterfall violation** — inside ``with rt.booted("m")``
  blocks with a literal mode, messaging a variable bound to a
  ``@rt.static("m2")`` instance where ``m2 <= m`` does not hold in the
  module's mode lattice.  The lattice is recovered from the source
  (``EntRuntime.standard()``, ``EntRuntime.thermal()``,
  ``ModeLattice.linear([...])`` with literal names), so the check
  works for any declared lattice; without a recognizable declaration
  the two built-in lattices are assumed.
* **E003 unused snapshot** — a ``rt.snapshot(...)`` result that is
  discarded (the tagged copy is lost; the original stays dynamic).
* **W101 snapshot-unbounded in bounded context** — a snapshot without
  bounds assigned inside a ``booted`` block, where a bad-check handler
  cannot fire (advisory; mirrors section 6.3's debugging walkthrough).

The lint is intraprocedural and conservative: it only reports when the
decorator/construction/messaging chain is syntactically evident, so
every finding is actionable.  It is available as an API
(:func:`lint_source`, :func:`lint_file`) and powers
``python -m repro analyze --embedded`` via :mod:`repro.cli`.
"""

from __future__ import annotations

import ast as pyast
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.modes import Mode, ModeLattice

__all__ = ["LintFinding", "lint_source", "lint_file"]


@dataclass(frozen=True)
class LintFinding:
    code: str
    line: int
    message: str

    def __str__(self) -> str:
        return f"{self.line}: {self.code} {self.message}"

    def as_dict(self) -> Dict[str, object]:
        return {"code": self.code, "line": self.line,
                "message": self.message}


def _literal_strings(node: pyast.expr) -> Optional[List[str]]:
    if isinstance(node, (pyast.List, pyast.Tuple)):
        out: List[str] = []
        for element in node.elts:
            if isinstance(element, pyast.Constant) and \
                    isinstance(element.value, str):
                out.append(element.value)
            else:
                return None
        return out if out else None
    return None


def _fallback_lattices() -> List[ModeLattice]:
    from repro.runtime.embedded import STANDARD_LATTICE, THERMAL_LATTICE
    return [STANDARD_LATTICE, THERMAL_LATTICE]


def _detect_lattices(tree: pyast.AST) -> List[ModeLattice]:
    """Recover the mode lattice(s) the module declares.

    Recognizes ``EntRuntime.standard()`` / ``EntRuntime.thermal()`` and
    literal ``ModeLattice.linear([...])`` expressions.  Falls back to
    the two built-in lattices when nothing is recognizable, keeping the
    lint useful on partial files.
    """
    lattices: List[ModeLattice] = []
    for node in pyast.walk(tree):
        if not isinstance(node, pyast.Call):
            continue
        func = node.func
        if not (isinstance(func, pyast.Attribute)
                and isinstance(func.value, pyast.Name)):
            continue
        owner = func.value.id
        if owner == "EntRuntime" and func.attr in ("standard", "thermal"):
            from repro.runtime.embedded import (STANDARD_LATTICE,
                                                THERMAL_LATTICE)
            lattices.append(STANDARD_LATTICE if func.attr == "standard"
                            else THERMAL_LATTICE)
        elif owner == "ModeLattice" and func.attr == "linear" \
                and node.args:
            names = _literal_strings(node.args[0])
            if names is not None:
                lattices.append(ModeLattice.linear(names))
    return lattices if lattices else _fallback_lattices()


def _decorator_kind(node: pyast.ClassDef) -> Tuple[Optional[str],
                                                   Optional[str]]:
    """Classify a class decorated with the embedded API.

    Returns ``("dynamic", None)``, ``("static", mode_literal_or_None)``,
    or ``(None, None)`` for unmanaged classes.
    """
    for decorator in node.decorator_list:
        # @rt.dynamic  or  @anything.dynamic
        if isinstance(decorator, pyast.Attribute) and \
                decorator.attr == "dynamic":
            return "dynamic", None
        if isinstance(decorator, pyast.Call):
            func = decorator.func
            if isinstance(func, pyast.Attribute):
                if func.attr == "dynamic":
                    return "dynamic", None
                if func.attr == "static":
                    mode = None
                    if decorator.args and isinstance(
                            decorator.args[0], pyast.Constant):
                        value = decorator.args[0].value
                        if isinstance(value, str):
                            mode = value
                    return "static", mode
    return None, None


def _is_snapshot_call(node: pyast.expr) -> bool:
    return (isinstance(node, pyast.Call)
            and isinstance(node.func, pyast.Attribute)
            and node.func.attr == "snapshot")


def _snapshot_has_bounds(node: pyast.Call) -> bool:
    if len(node.args) > 1:
        return True
    return any(kw.arg in ("lower", "upper") for kw in node.keywords)


def _booted_item(item: pyast.withitem) -> Tuple[bool, Optional[str]]:
    """``(is_booted, literal_mode)`` for a ``with`` item."""
    expr = item.context_expr
    if (isinstance(expr, pyast.Call)
            and isinstance(expr.func, pyast.Attribute)
            and expr.func.attr == "booted"):
        if expr.args and isinstance(expr.args[0], pyast.Constant) and \
                isinstance(expr.args[0].value, str):
            return True, expr.args[0].value
        return True, None
    return False, None


class _FunctionLinter(pyast.NodeVisitor):
    """Intraprocedural abstract interpretation of variable states."""

    def __init__(self, classes: Dict[str, Tuple[str, Optional[str]]],
                 findings: List[LintFinding],
                 lattices: Optional[List[ModeLattice]] = None) -> None:
        self.classes = classes
        self.findings = findings
        self.lattices = lattices if lattices is not None \
            else _fallback_lattices()
        #: var -> ("dynamic" | "snapshotted" | ("static", mode))
        self.state: Dict[str, object] = {}
        #: (inside a booted block?, literal boot mode if known)
        self.boot_stack: List[Tuple[bool, Optional[str]]] = [(False,
                                                              None)]

    # -- helpers -------------------------------------------------------

    def _construction_class(self,
                            node: pyast.expr) -> Optional[str]:
        if (isinstance(node, pyast.Call)
                and isinstance(node.func, pyast.Name)
                and node.func.id in self.classes):
            return node.func.id
        return None

    def _report(self, code: str, node: pyast.AST, message: str) -> None:
        self.findings.append(LintFinding(code, node.lineno, message))

    def _violates_waterfall(self, mode: str, boot: str) -> bool:
        """Does messaging a static-``mode`` object from a ``boot``-mode
        block violate the waterfall (``mode <= boot`` fails)?

        Decided against every detected lattice that declares both
        modes; undecidable pairs (unknown modes) never report.
        """
        decided = False
        a, b = Mode(mode), Mode(boot)
        for lattice in self.lattices:
            if a in lattice and b in lattice:
                if lattice.leq(a, b):
                    return False
                decided = True
        return decided

    # -- assignments ----------------------------------------------------

    def visit_Assign(self, node: pyast.Assign) -> None:
        self.visit(node.value)
        targets = [t.id for t in node.targets
                   if isinstance(t, pyast.Name)]
        cls = self._construction_class(node.value)
        if cls is not None:
            kind, mode = self.classes[cls]
            for name in targets:
                self.state[name] = ("dynamic" if kind == "dynamic"
                                    else ("static", mode))
            return
        if _is_snapshot_call(node.value):
            call = node.value
            if not _snapshot_has_bounds(call) and \
                    self.boot_stack[-1][0]:
                self._report(
                    "W101", node,
                    "unbounded snapshot inside a booted block: a "
                    "heavyweight attribution will only surface at the "
                    "next message; bound it with upper=... to fail "
                    "fast at the snapshot")
            for name in targets:
                self.state[name] = "snapshotted"
            return
        for name in targets:
            self.state.pop(name, None)

    def visit_Expr(self, node: pyast.Expr) -> None:
        if _is_snapshot_call(node.value):
            self._report(
                "E003", node,
                "snapshot result discarded: the mode-tagged copy is "
                "lost and the original object stays dynamic")
        self.generic_visit(node)

    # -- messaging -------------------------------------------------------

    def visit_Call(self, node: pyast.Call) -> None:
        func = node.func
        if isinstance(func, pyast.Attribute) and isinstance(
                func.value, pyast.Name):
            receiver = func.value.id
            state = self.state.get(receiver)
            if state == "dynamic" and func.attr not in (
                    "attributor",):
                self._report(
                    "E001", node,
                    f"messaging {receiver!r} before snapshot: its mode "
                    f"is still '?' and the call will raise "
                    f"EnergyException")
            elif (isinstance(state, tuple) and state[0] == "static"
                  and state[1] is not None):
                boot = self.boot_stack[-1][1]
                if boot is not None and \
                        self._violates_waterfall(state[1], boot):
                    self._report(
                        "E002", node,
                        f"waterfall violation: {receiver!r} has static "
                        f"mode {state[1]} but the enclosing booted "
                        f"block runs at {boot}")
        self.generic_visit(node)

    # -- control flow ------------------------------------------------------

    def visit_With(self, node: pyast.With) -> None:
        booted = False
        mode: Optional[str] = None
        for item in node.items:
            self.visit(item.context_expr)
            item_booted, item_mode = _booted_item(item)
            booted = booted or item_booted
            mode = item_mode if item_mode is not None else mode
        if booted:
            self.boot_stack.append((True, mode))
        else:
            self.boot_stack.append(self.boot_stack[-1])
        for stmt in node.body:
            self.visit(stmt)
        self.boot_stack.pop()

    def visit_If(self, node: pyast.If) -> None:
        # Branches are analyzed with a copy; states that survive both
        # arms unchanged are kept, anything else is forgotten
        # (conservative join).
        self.visit(node.test)
        before = dict(self.state)
        for stmt in node.body:
            self.visit(stmt)
        after_then = self.state
        self.state = dict(before)
        for stmt in node.orelse:
            self.visit(stmt)
        after_else = self.state
        self.state = {name: value
                      for name, value in after_then.items()
                      if after_else.get(name) == value}

    def visit_FunctionDef(self, node: pyast.FunctionDef) -> None:
        # Nested functions get a fresh scope.
        nested = _FunctionLinter(self.classes, self.findings,
                                 self.lattices)
        for stmt in node.body:
            nested.visit(stmt)

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_ClassDef(self, node: pyast.ClassDef) -> None:
        # Method bodies inside managed classes are messaging *self*,
        # which the internal view always allows; skip them.
        return


def lint_source(source: str,
                filename: str = "<string>") -> List[LintFinding]:
    """Lint Python source using the embedded ENT API."""
    tree = pyast.parse(source, filename=filename)
    classes: Dict[str, Tuple[str, Optional[str]]] = {}
    for node in pyast.walk(tree):
        if isinstance(node, pyast.ClassDef):
            kind, mode = _decorator_kind(node)
            if kind is not None:
                classes[node.name] = (kind, mode)
    findings: List[LintFinding] = []
    linter = _FunctionLinter(classes, findings,
                             _detect_lattices(tree))
    for stmt in tree.body:
        linter.visit(stmt)
    findings.sort(key=lambda f: (f.line, f.code))
    return findings


def lint_file(path: str) -> List[LintFinding]:
    with open(path, "r", encoding="utf-8") as handle:
        return lint_source(handle.read(), filename=path)
