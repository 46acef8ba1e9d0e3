"""The check-obligation pass: enumerate every dynamic check the runtime
would emit for a checked program, and decide which are provably safe.

:class:`ProgramAnalyzer` walks every body of a ``CheckedProgram``
(methods, constructors, field initializers, class and method
attributors) carrying a mode-flow environment (:mod:`.modeflow`), and
records one :class:`CheckSite` per obligation:

* ``dfall`` — the per-message dynamic waterfall check in
  ``Interpreter._invoke``;
* ``snapshot_bound`` — the ``lo <= mode <= hi`` check in
  ``Interpreter._snapshot_value``;
* ``mcase_elim`` — implicit or explicit mode-case elimination.

Each site is classified:

* ``static`` — the runtime emits no check at all (self messages,
  mode-transparent receivers);
* ``elided`` — a check the runtime would emit, proven to always pass;
  the planner (:mod:`.planner`) annotates the AST so the execution
  engines skip it;
* ``residual`` — a check that must run dynamically, with the reason.

The analysis is deliberately conservative; the soundness argument for
every ``elided`` verdict is spelled out in docs/ANALYSIS.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from typing import (Dict, FrozenSet, Iterator, List, Optional, Set,
                    Tuple, Union)

from repro.analysis.modeflow import (OMEGA, ONE, Bound, ModeFact,
                                     hull_fact, join_envs, join_facts,
                                     refine)
from repro.core.modes import BOTTOM, TOP, Mode
from repro.lang import ast_nodes as ast
from repro.lang.types import ClassInfo, MethodInfo, ObjectType
from repro.lang.typechecker import CheckedProgram
from repro.obs.prof import site_id

__all__ = ["CheckSite", "ProgramAnalyzer", "DFALL", "SNAPSHOT_BOUND",
           "MCASE_ELIM", "STATIC", "ELIDED", "RESIDUAL"]

# Obligation kinds.
DFALL = "dfall"
SNAPSHOT_BOUND = "snapshot_bound"
MCASE_ELIM = "mcase_elim"

# Site statuses.
STATIC = "static"
ELIDED = "elided"
RESIDUAL = "residual"


@dataclass
class CheckSite:
    """One dynamic-check obligation at one source location."""

    kind: str
    context: str
    description: str
    status: str
    reason: str
    line: Optional[int] = None
    column: Optional[int] = None
    #: The class whose mode discipline *causes* the obligation: the
    #: receiver class of a dfall check, the snapshotted class of a
    #: bound check, the enclosing class of a mode-case elimination.
    #: This is the advisor's grouping key (``repro.advise``): pinning a
    #: class to a static mode discharges exactly the sites targeting it.
    target_class: Optional[str] = None
    #: The AST node carrying the obligation (consumed by the planner;
    #: not part of the serialized report).
    node: object = field(default=None, repr=False, compare=False)
    #: End of the site's source span (the start is ``line``/``column``).
    end_line: Optional[int] = None
    end_column: Optional[int] = None
    #: How many loops enclose the site within its body.
    loop_depth: int = 0
    #: Executions of the site per activation of its enclosing body:
    #: the product of the enclosing loops' trip-count bounds.
    local_trips: Bound = ONE
    #: Activations of the enclosing body per program run (set by the
    #: cost pass, :mod:`.cost`).
    activations: Optional[Bound] = None
    #: ``local_trips * activations`` — the static bound on how many
    #: times this check can fire in one program run.
    firings: Optional[Bound] = None
    #: Abstract per-firing depth cost of the full (deep) check, in
    #: check-cost units (:data:`repro.analysis.cost.CHECK_COST`).
    cost_units: int = 0
    #: True when an ω trip bound was replaced by the ``--fuel`` budget.
    fuel_capped: bool = False

    @property
    def owner_class(self) -> str:
        """``target_class``, falling back to the context's class."""
        if self.target_class is not None:
            return self.target_class
        return self.context.split(".", 1)[0]

    @property
    def site_id(self) -> str:
        """``<kind>@<line>:<column>`` — the key the runtime profiler
        (:mod:`repro.obs.prof`) uses for the same obligation, which is
        what lets ``static_vs_observed`` join the two exactly."""
        return site_id(self.kind, self)

    def as_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "kind": self.kind,
            "context": self.context,
            "description": self.description,
            "status": self.status,
            "reason": self.reason,
            "line": self.line,
            "column": self.column,
            "site_id": self.site_id,
            "target_class": self.target_class,
            "span": {
                "line": self.line,
                "column": self.column,
                "end_line": self.end_line,
                "end_column": self.end_column,
            },
            "loop_depth": self.loop_depth,
            "local_trips": self.local_trips.as_json(),
        }
        if self.activations is not None:
            out["activations"] = self.activations.as_json()
        if self.firings is not None:
            out["firings_bound"] = self.firings.as_json()
            out["cost_units"] = self.cost_units
            cost = self.firings.scaled(self.cost_units)
            out["cost_bound"] = cost.as_json()
            if self.fuel_capped:
                out["fuel_capped"] = True
        return out


# ---------------------------------------------------------------------------
# Generic AST walking helpers


def iter_stmts(stmt: ast.Stmt) -> Iterator[ast.Stmt]:
    """``stmt`` and every statement nested inside it."""
    yield stmt
    cls = stmt.__class__
    if cls is ast.Block:
        for child in stmt.stmts:
            yield from iter_stmts(child)
    elif cls is ast.If:
        yield from iter_stmts(stmt.then)
        if stmt.otherwise is not None:
            yield from iter_stmts(stmt.otherwise)
    elif cls is ast.While:
        yield from iter_stmts(stmt.body)
    elif cls is ast.Foreach:
        yield from iter_stmts(stmt.body)
    elif cls is ast.TryCatch:
        yield from iter_stmts(stmt.body)
        yield from iter_stmts(stmt.handler)


def stmt_exprs(stmt: ast.Stmt) -> Tuple[ast.Expr, ...]:
    """The expressions directly owned by one statement."""
    cls = stmt.__class__
    if cls is ast.LocalVarDecl:
        return (stmt.init,) if stmt.init is not None else ()
    if cls is ast.Assign:
        return (stmt.target, stmt.value)
    if cls is ast.ExprStmt:
        return (stmt.expr,)
    if cls is ast.If:
        return (stmt.cond,)
    if cls is ast.While:
        return (stmt.cond,)
    if cls is ast.Foreach:
        return (stmt.iterable,)
    if cls is ast.Return:
        return (stmt.expr,) if stmt.expr is not None else ()
    if cls is ast.Throw:
        return (stmt.expr,)
    return ()


def iter_exprs(expr: ast.Expr) -> Iterator[ast.Expr]:
    """``expr`` and every expression nested inside it."""
    yield expr
    cls = expr.__class__
    if cls is ast.MethodCall:
        if expr.receiver is not None:
            yield from iter_exprs(expr.receiver)
        for arg in expr.args:
            yield from iter_exprs(arg)
    elif cls is ast.New:
        for arg in expr.args:
            yield from iter_exprs(arg)
    elif cls in (ast.Cast, ast.Snapshot, ast.MSelect, ast.Unary,
                 ast.InstanceOf):
        yield from iter_exprs(expr.expr)
    elif cls is ast.Binary:
        yield from iter_exprs(expr.left)
        yield from iter_exprs(expr.right)
    elif cls is ast.MCaseExpr:
        for branch in expr.branches:
            yield from iter_exprs(branch.expr)
    elif cls is ast.ListLit:
        for element in expr.elements:
            yield from iter_exprs(element)
    elif cls is ast.FieldAccess:
        yield from iter_exprs(expr.obj)


def assigned_locals(stmt: ast.Stmt) -> Set[str]:
    """Names assigned anywhere inside ``stmt`` (conservatively includes
    field writes that happen to share a name with a local)."""
    out: Set[str] = set()
    for child in iter_stmts(stmt):
        if child.__class__ is ast.Assign and isinstance(child.target,
                                                        ast.Var):
            out.add(child.target.name)
        elif child.__class__ is ast.Foreach:
            out.add(child.var_name)
    return out


def attributor_modes(
        attributor: ast.AttributorDecl) -> Optional[FrozenSet[Mode]]:
    """The set of mode literals an attributor body can return, or
    ``None`` when any return is not a literal mode constant."""
    modes: Set[Mode] = set()
    for stmt in iter_stmts(attributor.body):
        if stmt.__class__ is not ast.Return:
            continue
        expr = stmt.expr
        if (expr is None or expr.__class__ is not ast.Var
                or expr.resolved_kind != "mode"):
            return None
        modes.add(Mode(expr.name))
    return frozenset(modes) if modes else None


# ---------------------------------------------------------------------------
# The analyzer


#: Result of :meth:`ProgramAnalyzer._guard_profile`.
GuardProfile = Union[str, Tuple[str, Mode]]


class ProgramAnalyzer:
    """Walks a checked program, producing :class:`CheckSite` records.

    ``analyze()`` first iterates the interprocedural return summaries to
    a fixpoint (without recording), then performs one recording pass.
    """

    #: Fixpoint cap.  Summaries resolve acyclically (a summary is only
    #: assigned once all callee summaries it needs are assigned, and
    #: never changes afterwards), so this is a backstop, not a tuning
    #: knob.
    MAX_SUMMARY_PASSES = 50

    def __init__(self, checked: CheckedProgram) -> None:
        self.checked = checked
        self.program = checked.program
        self.table = checked.table
        self.lattice = checked.lattice
        self.sites: List[CheckSite] = []
        #: id(MethodInfo) -> ModeFact for the method's return value
        #: (absent/None = no fact).
        self.summaries: Dict[int, Optional[ModeFact]] = {}
        self._recording = False
        self._ctx = "<toplevel>"
        self._sender = ModeFact.unknown_concrete()
        self._returns: Optional[List[Optional[ModeFact]]] = None
        self._hull_cache: Dict[str, Optional[FrozenSet[Mode]]] = {}
        self._profile_cache: Dict[Tuple[str, str], GuardProfile] = {}
        self._analyzed = False
        #: Stack of enclosing-loop trip bounds within the current body.
        self._loop_stack: List[Bound] = []
        #: Known integer constants for locals (counted-loop detection).
        self._ints: Dict[str, int] = {}
        #: Call-multigraph edges ``(caller_ctx, callee_ctx, weight)``
        #: recorded during the recording walk; the weight is the
        #: product of the enclosing loops' trip bounds at the call.
        #: Consumed by the residual-cost pass (:mod:`.cost`).
        self.edges: List[Tuple[str, str, Bound]] = []
        self.main_at_top = self._compute_main_at_top()

    # ------------------------------------------------------------------
    # Entry point

    def analyze(self) -> List[CheckSite]:
        if self._analyzed:
            return self.sites
        for _ in range(self.MAX_SUMMARY_PASSES):
            if not self._summary_pass():
                break
        self._recording = True
        self._walk_program()
        self._recording = False
        self._analyzed = True
        return self.sites

    # ------------------------------------------------------------------
    # Whole-program facts

    def _compute_main_at_top(self) -> bool:
        """Is ``Main``'s only entry the boot invocation at ``TOP``?

        True when Main is mode-transparent and no expression in the
        program can produce or message a Main-typed value other than
        ``this`` inside Main itself.  Then every Main frame runs at the
        boot mode ``TOP`` (self-calls preserve the caller's mode
        through the transparent-receiver rule).
        """
        if "Main" not in self.table:
            return False
        if not self.table.get("Main").transparent:
            return False

        def related(name: str) -> bool:
            return (self.table.is_subclass(name, "Main")
                    or self.table.is_subclass("Main", name))

        for expr in self._iter_program_exprs():
            cls = expr.__class__
            if cls is ast.New:
                resolved = getattr(expr, "resolved_type", None)
                if isinstance(resolved, ObjectType) and \
                        related(resolved.class_name):
                    return False
            elif cls is ast.Cast:
                target = getattr(expr, "resolved_target", None)
                if isinstance(target, ObjectType) and \
                        related(target.class_name):
                    return False
            elif cls is ast.MethodCall:
                rtype = expr.resolved_receiver_type
                if (rtype is not None and related(rtype.class_name)
                        and expr.receiver is not None
                        and expr.receiver.__class__ is not ast.This):
                    return False
        return True

    def _iter_program_exprs(self) -> Iterator[ast.Expr]:
        for stmt, _ in self._iter_program_bodies():
            for child in iter_stmts(stmt):
                for expr in stmt_exprs(child):
                    yield from iter_exprs(expr)

    def _iter_program_bodies(self) -> Iterator[Tuple[ast.Stmt, str]]:
        for cls in self.program.classes:
            for fdecl in cls.fields:
                if fdecl.init is not None:
                    yield (ast.ExprStmt(expr=fdecl.init),
                           f"{cls.name}.<field {fdecl.name}>")
            if cls.constructor is not None:
                yield cls.constructor.body, f"{cls.name}.<init>"
            if cls.attributor is not None:
                yield cls.attributor.body, f"{cls.name}.<attributor>"
            for mdecl in cls.methods:
                yield mdecl.body, f"{cls.name}.{mdecl.name}"
                if mdecl.attributor is not None:
                    yield (mdecl.attributor.body,
                           f"{cls.name}.{mdecl.name}.<attributor>")

    # ------------------------------------------------------------------
    # Whole-program views for the advisor (repro.advise)

    def dynamic_classes(self) -> List[str]:
        """Classes declared with a dynamic (``?``) mode parameter —
        the classes a ``repro advise`` sweep can pin static."""
        return sorted(info.name for info in self.table.classes()
                      if info.name != "Object" and info.is_dynamic)

    def class_hulls(self) -> Dict[str, Optional[FrozenSet[Mode]]]:
        """``{dynamic class: attributor hull}`` — every mode any
        reachable attributor can return, or ``None`` when some
        attributor is not a literal-return one (the advisor then falls
        back to the whole declared lattice)."""
        return {name: self._class_hull(name)
                for name in self.dynamic_classes()}

    # ------------------------------------------------------------------
    # Class/method metadata (hulls, guard profiles, override sets)

    def _subclasses(self, class_name: str) -> List[ClassInfo]:
        return [info for info in self.table.classes()
                if info.name != "Object"
                and self.table.is_subclass(info.name, class_name)]

    def _class_hull(self,
                    class_name: str) -> Optional[FrozenSet[Mode]]:
        """All modes any attributor reachable from a snapshot of static
        class ``class_name`` can return — over the class *and every
        subclass* (the actual object may be any of them) — or ``None``
        when some attributor is not a literal-return one."""
        cached = self._hull_cache.get(class_name, _MISSING)
        if cached is not _MISSING:
            return cached
        hull: Set[Mode] = set()
        result: Optional[FrozenSet[Mode]] = None
        complete = True
        for info in self._subclasses(class_name):
            owner = self.table.attributor(info.name)
            if owner is None:
                complete = False
                break
            modes = attributor_modes(owner.decl.attributor)
            if modes is None:
                complete = False
                break
            hull.update(modes)
        if complete and hull:
            result = frozenset(hull)
        self._hull_cache[class_name] = result
        return result

    def _override_minfos(self, class_name: str,
                         method: str) -> List[MethodInfo]:
        """The method implementations any dynamic dispatch from a
        static receiver type ``class_name`` can reach."""
        seen: Dict[int, MethodInfo] = {}
        for info in self._subclasses(class_name):
            minfo = self.table.method(info.name, method)
            if minfo is not None:
                seen[id(minfo)] = minfo
        return list(seen.values())

    def _guard_profile(self, class_name: str,
                       method: str) -> GuardProfile:
        """How the runtime computes the dfall guard for this call, over
        every class the receiver can actually be:

        * ``"plain"`` — always the receiver's effective mode;
        * ``("concrete", m)`` — always the concrete override ``m``;
        * ``"varies"`` — differs across subclasses, or involves a
          method attributor / generic mode parameter somewhere.
        """
        key = (class_name, method)
        cached = self._profile_cache.get(key)
        if cached is not None:
            return cached
        result: Optional[GuardProfile] = None
        for minfo in self._override_minfos(class_name, method):
            mp = minfo.mode_param
            if mp is None:
                this: GuardProfile = "plain"
            elif mp.concrete is not None and not minfo.has_attributor:
                this = ("concrete", mp.concrete)
            else:
                result = "varies"
                break
            if result is None:
                result = this
            elif result != this:
                result = "varies"
                break
        result = result if result is not None else "varies"
        self._profile_cache[key] = result
        return result

    def _call_result_fact(self, class_name: str,
                          method: str) -> Optional[ModeFact]:
        minfos = self._override_minfos(class_name, method)
        if not minfos:
            return None
        fact: Optional[ModeFact] = None
        for index, minfo in enumerate(minfos):
            summary = self.summaries.get(id(minfo))
            if summary is None:
                return None
            fact = summary if index == 0 else join_facts(fact, summary,
                                                         self.lattice)
        return fact

    # ------------------------------------------------------------------
    # Interprocedural return summaries

    def _summary_pass(self) -> bool:
        changed = False
        for cls in self.program.classes:
            info = self.table.get(cls.name)
            for mdecl in cls.methods:
                minfo = info.methods.get(mdecl.name)
                if minfo is None:
                    continue
                fact = self._method_return_fact(cls, info, minfo, mdecl)
                key = id(minfo)
                if fact is not None and self.summaries.get(key) != fact:
                    self.summaries[key] = fact
                    changed = True
        return changed

    def _method_return_fact(self, cls: ast.ClassDecl, info: ClassInfo,
                            minfo: MethodInfo,
                            mdecl: ast.MethodDecl) -> Optional[ModeFact]:
        """A fact covering every value this body can return, or None.

        Sound only when every completion path goes through a collected
        ``return``: require the body to end in ``return``/``throw``.
        """
        body = mdecl.body
        if not body.stmts or body.stmts[-1].__class__ not in (ast.Return,
                                                              ast.Throw):
            return None
        self._ctx = f"{cls.name}.{mdecl.name}"
        self._sender = self._sender_fact(cls, info, minfo)
        self._loop_stack = []
        self._ints = {}
        self._returns = []
        self._visit_stmt(body, {})
        returns, self._returns = self._returns, None
        if not returns or any(f is None for f in returns):
            return None
        return reduce(lambda a, b: join_facts(a, b, self.lattice),
                      returns)

    # ------------------------------------------------------------------
    # Sender facts (one per body context)

    def _sender_fact(self, cls: ast.ClassDecl, info: ClassInfo,
                     minfo: Optional[MethodInfo]) -> ModeFact:
        """A fact for ``frame.current_mode`` of every frame executing
        this body (the dfall sender).  Closure modes are always
        concrete at run time, so the fallback is the full interval."""
        mp = minfo.mode_param if minfo is not None else None
        if mp is not None:
            if mp.concrete is not None:
                return ModeFact.exact(mp.concrete)
            if (minfo.has_attributor and minfo.decl is not None
                    and minfo.decl.attributor is not None):
                hull = attributor_modes(minfo.decl.attributor)
                if hull is not None:
                    return hull_fact(hull, self.lattice)
            return ModeFact.unknown_concrete()
        if info.transparent:
            # Transparent bodies run at the caller's mode.  Main is the
            # boot entry: when nothing else can reach it, that mode is
            # always TOP.
            if cls.name == "Main" and self.main_at_top:
                return ModeFact.exact(TOP)
            return ModeFact.unknown_concrete()
        first = info.params[0] if info.params else None
        if first is not None and first.concrete is not None:
            return ModeFact.exact(first.concrete)
        return ModeFact.unknown_concrete()

    # ------------------------------------------------------------------
    # The recording walk

    def _walk_program(self) -> None:
        bottom = ModeFact.exact(BOTTOM)
        for cls in self.program.classes:
            info = self.table.get(cls.name)
            unknown = ModeFact.unknown_concrete()
            for fdecl in cls.fields:
                if fdecl.init is not None:
                    self._enter(f"{cls.name}.<field {fdecl.name}>",
                                unknown)
                    self._visit_expr(fdecl.init, {})
            if cls.constructor is not None:
                self._enter(f"{cls.name}.<init>", unknown)
                self._visit_stmt(cls.constructor.body, {})
            if cls.attributor is not None:
                self._enter(f"{cls.name}.<attributor>", bottom)
                self._visit_stmt(cls.attributor.body, {})
            for mdecl in cls.methods:
                minfo = info.methods.get(mdecl.name)
                self._enter(f"{cls.name}.{mdecl.name}",
                            self._sender_fact(cls, info, minfo))
                self._visit_stmt(mdecl.body, {})
                if mdecl.attributor is not None:
                    self._enter(f"{cls.name}.{mdecl.name}.<attributor>",
                                bottom)
                    self._visit_stmt(mdecl.attributor.body, {})

    def _enter(self, context: str, sender: ModeFact) -> None:
        self._ctx = context
        self._sender = sender
        self._loop_stack = []
        self._ints = {}

    def _record_site(self, kind: str, node, description: str,
                     status: str, reason: str,
                     target_class: Optional[str] = None) -> None:
        span = getattr(node, "span", None)
        if target_class is None:
            # Mode-case eliminations run against the *enclosing*
            # object's mode: the context's class owns them.
            target_class = self._ctx.split(".", 1)[0]
        trips = ONE
        for bound in self._loop_stack:
            trips = trips * bound
        self.sites.append(CheckSite(
            kind=kind, context=self._ctx, description=description,
            status=status, reason=reason,
            line=span.line if span is not None else None,
            column=span.column if span is not None else None,
            end_line=span.end_line if span is not None else None,
            end_column=span.end_column if span is not None else None,
            loop_depth=len(self._loop_stack),
            local_trips=trips,
            target_class=target_class,
            node=node))

    # ------------------------------------------------------------------
    # Statements (dataflow transfer)

    def _visit_stmt(self, stmt: ast.Stmt,
                    env: Dict[str, ModeFact]) -> None:
        cls = stmt.__class__
        if cls is ast.Block:
            for child in stmt.stmts:
                self._visit_stmt(child, env)
        elif cls is ast.LocalVarDecl:
            fact = (self._visit_expr(stmt.init, env)
                    if stmt.init is not None else None)
            if fact is None:
                env.pop(stmt.name, None)
            else:
                env[stmt.name] = fact
            if stmt.init is not None and stmt.init.__class__ is \
                    ast.IntLit:
                self._ints[stmt.name] = stmt.init.value
            else:
                self._ints.pop(stmt.name, None)
        elif cls is ast.Assign:
            fact = self._visit_expr(stmt.value, env)
            target = stmt.target
            if target.__class__ is ast.Var:
                if target.resolved_kind == "local":
                    if fact is None:
                        env.pop(target.name, None)
                    else:
                        env[target.name] = fact
                if stmt.value.__class__ is ast.IntLit:
                    self._ints[target.name] = stmt.value.value
                else:
                    self._ints.pop(target.name, None)
            elif target.__class__ is ast.FieldAccess:
                self._visit_expr(target.obj, env)
        elif cls is ast.ExprStmt:
            self._visit_expr(stmt.expr, env)
        elif cls is ast.If:
            self._visit_expr(stmt.cond, env)
            entry_ints = dict(self._ints)
            then_env = dict(env)
            self._visit_stmt(stmt.then, then_env)
            then_ints = self._ints
            self._ints = dict(entry_ints)
            else_env = dict(env)
            if stmt.otherwise is not None:
                self._visit_stmt(stmt.otherwise, else_env)
            merged = join_envs(then_env, else_env, self.lattice)
            env.clear()
            env.update(merged)
            self._ints = _merge_ints(then_ints, self._ints)
        elif cls is ast.While:
            # Conservative loop rule: drop every local assigned inside
            # the loop; what remains holds on every iteration and after
            # the loop.  Facts established sequentially *within* an
            # iteration (local declarations) are handled by the body
            # walk itself.
            trips = self._while_trips(stmt)
            for name in assigned_locals(stmt.body):
                env.pop(name, None)
                self._ints.pop(name, None)
            self._visit_expr(stmt.cond, env)
            body_env = dict(env)
            self._loop_stack.append(trips)
            self._visit_stmt(stmt.body, body_env)
            self._loop_stack.pop()
        elif cls is ast.Foreach:
            self._visit_expr(stmt.iterable, env)
            trips = (Bound(len(stmt.iterable.elements))
                     if stmt.iterable.__class__ is ast.ListLit
                     else OMEGA)
            for name in assigned_locals(stmt.body) | {stmt.var_name}:
                env.pop(name, None)
                self._ints.pop(name, None)
            body_env = dict(env)
            self._loop_stack.append(trips)
            self._visit_stmt(stmt.body, body_env)
            self._loop_stack.pop()
        elif cls is ast.Return:
            fact = (self._visit_expr(stmt.expr, env)
                    if stmt.expr is not None else None)
            if self._returns is not None:
                self._returns.append(fact)
        elif cls is ast.TryCatch:
            entry_ints = dict(self._ints)
            body_env = dict(env)
            self._visit_stmt(stmt.body, body_env)
            body_ints = self._ints
            # The handler may resume after any prefix of the body:
            # start from the entry env minus everything the body can
            # rebind.
            handler_env = dict(env)
            self._ints = dict(entry_ints)
            for name in assigned_locals(stmt.body):
                handler_env.pop(name, None)
                self._ints.pop(name, None)
            self._visit_stmt(stmt.handler, handler_env)
            merged = join_envs(body_env, handler_env, self.lattice)
            env.clear()
            env.update(merged)
            self._ints = _merge_ints(body_ints, self._ints)
        elif cls is ast.Throw:
            self._visit_expr(stmt.expr, env)
        # Break / Continue carry no expressions; the surrounding loop
        # rule already discards anything they could invalidate.

    # ------------------------------------------------------------------
    # Counted-loop trip bounds

    def _while_trips(self, stmt: ast.While) -> Bound:
        """Trip-count bound for a ``while``: exact for the counted
        idiom ``i = c; while (i < N) { ...; i = i + s; }`` (the
        increment a top-level body statement, no other write to ``i``,
        no ``continue`` that could skip it), ω otherwise.  ``break``
        only exits early, so the count stays an upper bound."""
        cond = stmt.cond
        if cond.__class__ is not ast.Binary or \
                cond.op not in ("<", "<="):
            return OMEGA
        var, limit = cond.left, cond.right
        if (var.__class__ is not ast.Var or var.resolved_kind != "local"
                or limit.__class__ is not ast.IntLit):
            return OMEGA
        start = self._ints.get(var.name)
        if start is None:
            return OMEGA
        body = stmt.body
        if body.__class__ is not ast.Block:
            return OMEGA
        writes: List[ast.Assign] = []
        for child in iter_stmts(body):
            ccls = child.__class__
            if ccls is ast.Continue:
                return OMEGA
            if ccls is ast.LocalVarDecl and child.name == var.name:
                return OMEGA
            if ccls is ast.Foreach and child.var_name == var.name:
                return OMEGA
            if ccls is ast.Assign and \
                    child.target.__class__ is ast.Var and \
                    child.target.name == var.name:
                writes.append(child)
        if len(writes) != 1 or \
                not any(s is writes[0] for s in body.stmts):
            return OMEGA
        step = _increment_step(writes[0].value, var.name)
        if step is None:
            return OMEGA
        width = limit.value - start + (1 if cond.op == "<=" else 0)
        return Bound(max(0, -(-width // step)))

    def _edge_weight(self) -> Bound:
        weight = ONE
        for bound in self._loop_stack:
            weight = weight * bound
        return weight

    def _record_call_edges(self, class_name: str, method: str) -> None:
        weight = self._edge_weight()
        for minfo in self._override_minfos(class_name, method):
            self.edges.append(
                (self._ctx, f"{minfo.owner}.{minfo.name}", weight))
            if minfo.has_attributor:
                self.edges.append(
                    (self._ctx,
                     f"{minfo.owner}.{minfo.name}.<attributor>",
                     weight))

    def _record_new_edges(self, expr: ast.New) -> None:
        resolved = getattr(expr, "resolved_type", None)
        if not isinstance(resolved, ObjectType) or \
                resolved.class_name not in self.table:
            return
        weight = self._edge_weight()
        info = self.table.get(resolved.class_name)
        # Construction runs every inherited field initializer plus the
        # class's own constructor (see ``Interpreter._construct``).
        for finfo in self.table.all_fields(info.name):
            if finfo.decl is not None and finfo.decl.init is not None:
                self.edges.append(
                    (self._ctx, f"{finfo.owner}.<field {finfo.name}>",
                     weight))
        if info.decl is not None and info.decl.constructor is not None:
            self.edges.append(
                (self._ctx, f"{info.name}.<init>", weight))

    def _record_snapshot_edges(self, class_name: str) -> None:
        # One snapshot runs exactly one attributor, but the object may
        # be any subclass: an edge per distinct reachable attributor.
        weight = self._edge_weight()
        targets: Set[str] = set()
        for info in self._subclasses(class_name):
            owner = self.table.attributor(info.name)
            if owner is not None:
                targets.add(owner.name)
        for owner in sorted(targets):
            self.edges.append(
                (self._ctx, f"{owner}.<attributor>", weight))

    # ------------------------------------------------------------------
    # Expressions

    def _visit_expr(self, expr: ast.Expr,
                    env: Dict[str, ModeFact]) -> Optional[ModeFact]:
        cls = expr.__class__
        fact: Optional[ModeFact] = None
        if cls is ast.Var:
            if expr.resolved_kind == "local":
                fact = env.get(expr.name)
        elif cls is ast.MethodCall:
            fact = self._visit_call(expr, env)
        elif cls is ast.New:
            for arg in expr.args:
                self._visit_expr(arg, env)
            if self._recording:
                self._record_new_edges(expr)
            fact = self._new_fact(expr)
        elif cls is ast.Snapshot:
            fact = self._visit_snapshot(expr, env)
        elif cls is ast.Cast:
            inner = self._visit_expr(expr.expr, env)
            fact = self._cast_fact(expr, inner)
        elif cls is ast.FieldAccess:
            self._visit_expr(expr.obj, env)
        elif cls is ast.MSelect:
            self._visit_expr(expr.expr, env)
            if self._recording:
                self._record_site(
                    MCASE_ELIM, expr,
                    f"mselect(..., {expr.mode_name})", RESIDUAL,
                    "explicit elimination against a run-time mode")
        elif cls is ast.MCaseExpr:
            for branch in expr.branches:
                self._visit_expr(branch.expr, env)
        elif cls is ast.Binary:
            self._visit_expr(expr.left, env)
            self._visit_expr(expr.right, env)
        elif cls is ast.Unary or cls is ast.InstanceOf:
            self._visit_expr(expr.expr, env)
        elif cls is ast.ListLit:
            for element in expr.elements:
                self._visit_expr(element, env)
        # Literals and This carry no facts and no obligations.
        if self._recording and getattr(expr, "implicit_elim", False):
            self._record_site(
                MCASE_ELIM, expr, "implicit mode-case elimination",
                RESIDUAL,
                "eliminated against the enclosing object's run-time "
                "mode")
        return fact

    def _new_fact(self, expr: ast.New) -> Optional[ModeFact]:
        resolved = getattr(expr, "resolved_type", None)
        if not isinstance(resolved, ObjectType):
            return None
        if resolved.class_name not in self.table:
            return None
        info = self.table.get(resolved.class_name)
        if info.params and info.params[0].concrete is not None:
            return ModeFact.exact(info.params[0].concrete)
        if resolved.mode_args and isinstance(resolved.omode, Mode):
            # Constructed at a concrete mode: the object's mode binding
            # is fixed for life (snapshot requires a ?-typed source).
            return ModeFact.exact(resolved.omode)
        return None

    def _cast_fact(self, expr: ast.Cast,
                   inner: Optional[ModeFact]) -> Optional[ModeFact]:
        target = getattr(expr, "resolved_target", None)
        if isinstance(target, ObjectType) and target.mode_args and \
                isinstance(target.omode, Mode):
            # A successful cast to C@mode<m> checks mode equality.
            return ModeFact.exact(target.omode)
        if isinstance(target, ObjectType):
            # Mode-preserving cast: the value is unchanged.
            return inner
        return None

    def _visit_snapshot(self, expr: ast.Snapshot,
                        env: Dict[str, ModeFact]) -> Optional[ModeFact]:
        self._visit_expr(expr.expr, env)
        lo_atom, hi_atom = getattr(expr, "resolved_bounds",
                                   (BOTTOM, TOP))
        class_name = expr.resolved_class_name
        hull = (self._class_hull(class_name)
                if class_name is not None else None)
        lo_concrete = isinstance(lo_atom, Mode)
        hi_concrete = isinstance(hi_atom, Mode)
        if self._recording:
            if class_name is not None and class_name in self.table:
                self._record_snapshot_edges(class_name)
            description = (f"snapshot {class_name or '?'} "
                           f"[{_atom_name(lo_atom)}, "
                           f"{_atom_name(hi_atom)}]")
            if lo_concrete and hi_concrete and lo_atom is BOTTOM \
                    and hi_atom is TOP:
                self._record_site(
                    SNAPSHOT_BOUND, expr, description, ELIDED,
                    "vacuous bounds (bottom/top): every attributed "
                    "mode passes", target_class=class_name)
            elif not (lo_concrete and hi_concrete):
                self._record_site(
                    SNAPSHOT_BOUND, expr, description, RESIDUAL,
                    "bound depends on a mode variable resolved at run "
                    "time", target_class=class_name)
            elif hull is not None and all(
                    self.lattice.clamp(m, lo_atom, hi_atom)
                    for m in hull):
                names = ", ".join(sorted(m.name for m in hull))
                self._record_site(
                    SNAPSHOT_BOUND, expr, description, ELIDED,
                    f"every reachable attributor returns only "
                    f"{{{names}}}, all within the bounds",
                    target_class=class_name)
            else:
                self._record_site(
                    SNAPSHOT_BOUND, expr, description, RESIDUAL,
                    "the attributor may return a mode outside the "
                    "bounds (re-evaluated on every snapshot)",
                    target_class=class_name)
        fact = ModeFact(lo_atom if lo_concrete else BOTTOM,
                        hi_atom if hi_concrete else TOP)
        if hull is not None:
            fact = refine(fact, hull_fact(hull, self.lattice),
                          self.lattice)
        return fact

    def _visit_call(self, expr: ast.MethodCall,
                    env: Dict[str, ModeFact]) -> Optional[ModeFact]:
        receiver_fact: Optional[ModeFact] = None
        if expr.receiver is not None:
            receiver_fact = self._visit_expr(expr.receiver, env)
        for arg in expr.args:
            self._visit_expr(arg, env)
        minfo = expr.resolved_minfo
        rtype = expr.resolved_receiver_type
        if minfo is None or rtype is None:
            # Native / String / List call: no waterfall obligation.
            return None
        if self._recording:
            self._record_call_edges(rtype.class_name, expr.name)
            self._classify_dfall(expr, rtype, minfo, receiver_fact)
        return self._call_result_fact(rtype.class_name, expr.name)

    def _classify_dfall(self, expr: ast.MethodCall, rtype: ObjectType,
                        minfo: MethodInfo,
                        receiver_fact: Optional[ModeFact]) -> None:
        description = f"message {rtype.class_name}.{expr.name}"

        def record(status: str, reason: str) -> None:
            self._record_site(DFALL, expr, description, status, reason,
                              target_class=rtype.class_name)

        if expr.receiver is None or expr.resolved_self_call:
            record(STATIC,
                   "self message: the internal view needs no waterfall "
                   "check")
            return
        if self.table.get(rtype.class_name).transparent:
            record(STATIC,
                   "mode-transparent receiver: runs at the caller's "
                   "mode, no dynamic check")
            return
        mp = minfo.mode_param
        if mp is not None and minfo.has_attributor:
            record(RESIDUAL,
                   "method attributor re-evaluates the guard mode at "
                   "every call")
            return
        if mp is not None and mp.concrete is None:
            record(RESIDUAL,
                   "mode-generic method: guard inferred from arguments "
                   "at run time")
            return
        profile = self._guard_profile(rtype.class_name, expr.name)
        if profile == "varies":
            record(RESIDUAL,
                   "mode characterization varies across subclass "
                   "overrides")
            return
        if profile == "plain":
            guard_fact = receiver_fact
            if guard_fact is None:
                record(RESIDUAL,
                       "mode-variable receiver: the guard depends on "
                       "the instantiation"
                       if isinstance(rtype.omode, str) else
                       "no static fact for the receiver's mode")
                return
        else:
            guard_fact = ModeFact.exact(profile[1])
        sender = self._sender
        if self.lattice.leq(guard_fact.upper, sender.lower):
            record(ELIDED,
                   f"guard <= {guard_fact.upper.name} <= "
                   f"{sender.lower.name} <= sender on every execution")
        else:
            record(RESIDUAL,
                   f"guard in {guard_fact} not provably below sender "
                   f"in {sender}")


def _merge_ints(a: Dict[str, int], b: Dict[str, int]) -> Dict[str, int]:
    """Branch merge for the integer-constant environment: keep only
    names bound to the same value on both paths."""
    return {name: value for name, value in a.items()
            if b.get(name) == value}


def _increment_step(value: ast.Expr, name: str) -> Optional[int]:
    """The step of ``name = name + k`` / ``name = k + name`` (k >= 1),
    or ``None`` when the write is not that idiom."""
    if value.__class__ is not ast.Binary or value.op != "+":
        return None
    left, right = value.left, value.right
    if left.__class__ is ast.Var and left.name == name and \
            right.__class__ is ast.IntLit:
        step = right.value
    elif right.__class__ is ast.Var and right.name == name and \
            left.__class__ is ast.IntLit:
        step = left.value
    else:
        return None
    return step if step >= 1 else None


def _atom_name(atom) -> str:
    if isinstance(atom, Mode):
        if atom is BOTTOM:
            return "_"
        if atom is TOP:
            return "_"
        return atom.name
    return str(atom)


class _Missing:
    pass


_MISSING = _Missing()
