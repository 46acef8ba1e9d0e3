"""Register-bytecode lowering for the ENT VM (and the JIT built on it).

``lower_body`` translates a typechecked (and, when the elision planner
ran, analysis-annotated) AST body into a flat instruction stream over a
register file:

* **Registers** — non-negative indices are frame slots (parameters
  occupy ``0..n-1``, locals and expression temporaries follow; shadowed
  names get fresh slots).  *Negative* indices address the constant pool:
  the k-th interned constant lives at index ``-(k+1)``, so
  ``regs[-(k+1)]`` reads it with no operand-fixup pass — the register
  file is materialized as ``[slots...] + reversed(consts)`` and writes
  only ever target non-negative indices.
* **Explicit check instructions** — the dynamic mode checks the paper
  counts are first-class opcodes: ``CALL`` carries the waterfall
  check, ``SNAPSHOT`` the bound check, ``MCASE_DISPATCH`` the implicit
  mode-case elimination.  Each opcode names one ENT operation and
  carries its policy as an operand.  The :mod:`repro.analysis`
  planner's verdicts reach a send through ``CallSite.elide_dfall`` and
  a snapshot through its ``elide`` operand: an elided check is not run
  (the elided counters keep the executed+elided sum invariant).  The
  check depth is not in the bytecode at all: under ``--checks
  transient`` the VM and JIT read ``Interpreter._transient`` and
  collapse residual checks to O(1) probes of the mode lattice's
  precomputed upward closure (``ModeLattice.up``).  Implicit
  mode-case elimination happens exactly at the nodes the typechecker
  marked ``implicit_elim``: a field or variable read carries it as its
  mode-case operand (``MC_ELIM`` eliminates at the owner's mode,
  ``MC_RAW`` keeps a mode case raw); a local read, a call result and
  an ``mcase`` literal lower to ``MCASE_DISPATCH`` at the frame's mode.
* **Superinstructions** — fused compare-and-branch (``JF_LT`` & co),
  ``INC`` for the canonical ``i = i + 1``, ``FIELD_ADD`` for
  ``this.f = this.f + x``, ``RET_FIELD`` for ``return this.f``, and
  ``CALL_NATIVE`` for statically-known native receivers.

Semantics are *not* duplicated: slow paths call straight back into the
interpreter's shared helpers (``_binary_op``, ``_snapshot_value``,
``_mselect_value``, ``_cast_value``, ``_invoke``, ``_construct``) and
the kernel (:mod:`repro.core.checks`), so the mode machinery lives in
exactly one place and error messages match the tree walk byte for byte.

See ``docs/VM.md`` for the instruction-set reference and
:mod:`repro.lang.vm` for the dispatch loop.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.errors import SourceSpan, StuckError
from repro.core.modes import BOTTOM, TOP, Mode
from repro.lang import ast_nodes as ast
from repro.lang import types as ty

__all__ = ["VMCode", "LoopRegion", "LOOP_EXIT", "CallSite", "lower_body",
           "lower_expr", "instrument", "loop_back_edges", "named_slots",
           "disassemble", "OP_NAMES", "OP_COST_KEYS", "op_cost_key"]

# ---------------------------------------------------------------------------
# Opcodes.  Roughly hotness-ordered: the dispatch loop in vm.py probes
# them in this order.

OP_FUEL = 0            # ()               loop-head fuel charge
OP_JF_LT = 1           # (target, a, b)   jump if not (a < b)
OP_JF_LE = 2           # (target, a, b)
OP_JF_GT = 3           # (target, a, b)
OP_JF_GE = 4           # (target, a, b)
OP_JF_EQ = 5           # (target, a, b)   values_equal
OP_JF_NE = 6           # (target, a, b)
OP_CALL = 7            # (dst, site, recv|None)  message + DFALL_CHECK
OP_INC = 8             # (slot, delta, op, lit)  slot = slot +/- lit
OP_MOD = 9             # (dst, a, b)
OP_JUMP = 10           # (target,)
OP_FIELD_ADD = 11      # (name, src)      this.name = this.name + r[src]
OP_RET_FIELD = 12      # (name,)          return this.name
OP_RETURN = 13         # (src,)
OP_ADD = 14            # (dst, a, b)
OP_MOVE = 15           # (dst, src)
OP_GETF_THIS = 16      # (dst, name, mcase)
OP_SUB = 17
OP_MUL = 18
OP_DIV = 19
OP_LT = 20
OP_LE = 21
OP_GT = 22
OP_GE = 23
OP_EQ = 24
OP_NE = 25
OP_JF = 26             # (target, src)    jump if False (StuckError else)
OP_JT = 27             # (target, src)
OP_SETF_THIS = 28      # (name, src)
OP_SETF = 29           # (name, obj, src)
OP_GETF = 30           # (dst, name, obj, mcase)
OP_VAR_DYN = 31        # (dst, name, mcase)  dynamic resolution fallback
OP_MCASE_DISPATCH = 32 # (dst, src)       implicit mode-case elimination
OP_MCASE_BUILD = 33    # (dst, spec)      spec = ((mode|None, reg), ...)
OP_MSELECT = 34        # (dst, src, atom)
OP_SNAPSHOT = 35       # (dst, src, bounds, span, elide)  + BOUND_CHECK
OP_CAST = 36           # (dst, src, target)
OP_CAST_ERR = 37       # (src,)           un-typechecked cast
OP_NEW = 38            # (dst, meta, arg_regs)  meta=(info, atoms, span)
OP_NEW_LIST = 39       # (dst,)
OP_LIST_BUILD = 40     # (dst, regs)
OP_INSTANCEOF = 41     # (dst, src, class_name)
OP_NEG = 42            # (dst, src)
OP_NOT = 43            # (dst, src)
OP_LOAD_THIS = 44      # (dst,)
OP_LOAD_NATIVE = 45    # (dst, name)
OP_CALL_NATIVE = 46    # (dst, (cls, method), arg_regs)
OP_FOREACH_INIT = 47   # (dst, src)
OP_FOREACH_ITER = 48   # (target, state, var_slot)
OP_PUSH_HANDLER = 49   # (target, exc_slot)
OP_POP_HANDLER = 50    # ()
OP_THROW = 51          # (src,)
OP_RETURN_NONE = 52    # ()
OP_FALLOFF = 53        # ()               body end without return
OP_PROFILE = 54        # (label,)  profiler bump (instrument() only)

#: The mode-case operand of ``GETF_THIS``, ``GETF`` and ``VAR_DYN``:
#: what the read does with an un-eliminated ``MCaseV``.  ``MC_ELIM``
#: (the node is ``implicit_elim``) eliminates it at its owner's mode;
#: ``MC_RAW`` keeps it raw.
MC_ELIM = -1
MC_RAW = None

OP_NAMES = {
    OP_FUEL: "FUEL", OP_JF_LT: "JF_LT", OP_JF_LE: "JF_LE",
    OP_JF_GT: "JF_GT", OP_JF_GE: "JF_GE", OP_JF_EQ: "JF_EQ",
    OP_JF_NE: "JF_NE", OP_CALL: "CALL", OP_INC: "INC", OP_MOD: "MOD",
    OP_JUMP: "JUMP", OP_FIELD_ADD: "FIELD_ADD",
    OP_RET_FIELD: "RET_FIELD", OP_RETURN: "RETURN", OP_ADD: "ADD",
    OP_MOVE: "MOVE", OP_GETF_THIS: "GETF_THIS", OP_SUB: "SUB",
    OP_MUL: "MUL", OP_DIV: "DIV", OP_LT: "LT", OP_LE: "LE",
    OP_GT: "GT", OP_GE: "GE", OP_EQ: "EQ", OP_NE: "NE", OP_JF: "JF",
    OP_JT: "JT", OP_SETF_THIS: "SETF_THIS", OP_SETF: "SETF",
    OP_GETF: "GETF", OP_VAR_DYN: "VAR_DYN",
    OP_MCASE_DISPATCH: "MCASE_DISPATCH",
    OP_MCASE_BUILD: "MCASE_BUILD", OP_MSELECT: "MSELECT",
    OP_SNAPSHOT: "SNAPSHOT", OP_CAST: "CAST", OP_CAST_ERR: "CAST_ERR",
    OP_NEW: "NEW", OP_NEW_LIST: "NEW_LIST", OP_LIST_BUILD: "LIST_BUILD",
    OP_INSTANCEOF: "INSTANCEOF", OP_NEG: "NEG", OP_NOT: "NOT",
    OP_LOAD_THIS: "LOAD_THIS", OP_LOAD_NATIVE: "LOAD_NATIVE",
    OP_CALL_NATIVE: "CALL_NATIVE", OP_FOREACH_INIT: "FOREACH_INIT",
    OP_FOREACH_ITER: "FOREACH_ITER", OP_PUSH_HANDLER: "PUSH_HANDLER",
    OP_POP_HANDLER: "POP_HANDLER", OP_THROW: "THROW",
    OP_RETURN_NONE: "RETURN_NONE", OP_FALLOFF: "FALLOFF",
    OP_PROFILE: "PROFILE",
}

# ---------------------------------------------------------------------------
# Stable cost keys.  The energy cost model (``repro.advise.costmodel``)
# prices work per *cost key*, not per opcode number: opcode numbering is
# hotness-ordered and free to change between PRs, but the keys below are
# a stable, documented vocabulary that per-architecture cost tables are
# written against.  Families mirror the profiler's label scheme
# (``op.ADD`` → key ``alu``; ``check.dfall@3:4`` → key ``check.dfall``)
# so calibration can join measured joules back onto the same keys.  A
# send is a ``call``: when its dfall check runs under the profiler, the
# check kernel's own ``check.dfall@…`` label prices it.

OP_COST_KEYS = {
    OP_FUEL: "control", OP_JF_LT: "branch", OP_JF_LE: "branch",
    OP_JF_GT: "branch", OP_JF_GE: "branch", OP_JF_EQ: "branch",
    OP_JF_NE: "branch", OP_CALL: "call", OP_INC: "alu", OP_MOD: "alu",
    OP_JUMP: "branch", OP_FIELD_ADD: "field", OP_RET_FIELD: "field",
    OP_RETURN: "control", OP_ADD: "alu", OP_MOVE: "move",
    OP_GETF_THIS: "field", OP_SUB: "alu", OP_MUL: "alu",
    OP_DIV: "alu", OP_LT: "alu", OP_LE: "alu", OP_GT: "alu",
    OP_GE: "alu", OP_EQ: "alu", OP_NE: "alu", OP_JF: "branch",
    OP_JT: "branch", OP_SETF_THIS: "field", OP_SETF: "field",
    OP_GETF: "field", OP_VAR_DYN: "move",
    OP_MCASE_DISPATCH: "check.mcase_elim",
    OP_MCASE_BUILD: "alloc", OP_MSELECT: "check.mcase_elim",
    OP_SNAPSHOT: "check.snapshot_bound",
    OP_CAST: "check.snapshot_bound", OP_CAST_ERR: "control",
    OP_NEW: "alloc",
    OP_NEW_LIST: "alloc", OP_LIST_BUILD: "alloc",
    OP_INSTANCEOF: "alu", OP_NEG: "alu", OP_NOT: "alu",
    OP_LOAD_THIS: "move", OP_LOAD_NATIVE: "move",
    OP_CALL_NATIVE: "native", OP_FOREACH_INIT: "control",
    OP_FOREACH_ITER: "branch", OP_PUSH_HANDLER: "control",
    OP_POP_HANDLER: "control", OP_THROW: "control",
    OP_RETURN_NONE: "control", OP_FALLOFF: "control",
    OP_PROFILE: "control",
}


def op_cost_key(op: int) -> str:
    """Stable cost-model key for an opcode (``'default'`` if unknown)."""
    return OP_COST_KEYS.get(op, "default")


#: Fused conditional jumps and value-producing compare ops by operator.
_JF_MAP = {"<": OP_JF_LT, "<=": OP_JF_LE, ">": OP_JF_GT,
           ">=": OP_JF_GE, "==": OP_JF_EQ, "!=": OP_JF_NE}
_BINOP_MAP = {"+": OP_ADD, "-": OP_SUB, "*": OP_MUL, "/": OP_DIV,
              "%": OP_MOD, "<": OP_LT, "<=": OP_LE, ">": OP_GT,
              ">=": OP_GE, "==": OP_EQ, "!=": OP_NE}


class VMCode:
    """A lowered body: instruction tuple plus the register-file template
    (``[None] * n_slots + reversed(consts)``; see module docstring).

    The trailing slots are the JIT tier's per-body state (see
    :mod:`repro.lang.jit`): ``heat`` counts calls toward the method-entry
    threshold (loops count their own heat, on a :class:`LoopRegion`),
    ``jit``/``jit_src`` hold the installed whole-body entry point and
    its emitted Python source, ``jit_deopts`` counts guard failures
    since the last (re)compile, and ``jit_versions`` counts compiles so
    repeatedly-deoptimizing bodies can be blacklisted back to the VM.
    All stay at their zero values unless the interpreter runs with
    ``engine="jit"``."""

    __slots__ = ("instrs", "template", "nparams", "n_slots", "consts",
                 "name", "param_names", "heat", "jit", "jit_src",
                 "jit_deopts", "jit_versions")

    def __init__(self, instrs, template, nparams, n_slots, consts,
                 name, param_names) -> None:
        self.instrs = instrs
        self.template = template
        self.nparams = nparams
        self.n_slots = n_slots
        self.consts = consts
        self.name = name
        self.param_names = param_names
        self.heat = 0
        self.jit = None
        self.jit_src = None
        self.jit_deopts = 0
        self.jit_versions = 0


#: What a compiled loop region returns when control leaves the loop
#: through its exit (``end + 1``); any other value is the body's own
#: ``return``.
LOOP_EXIT = object()


class LoopRegion:
    """One loop of a lowered body as its own JIT compilation unit: the
    instructions ``[head, end]`` from the loop head (``FUEL`` or
    ``FOREACH_ITER``) to its back edge (``JUMP head``).  Lowering gives
    every loop a single exit, ``end + 1``.

    The record carries :class:`VMCode`'s tiering slots — ``heat`` counts
    this loop's back edges toward the OSR threshold — so the JIT's
    compile, deopt, invalidation and blacklist bookkeeping treats a
    loop exactly like a body."""

    __slots__ = ("code", "head", "end", "name", "heat", "jit", "jit_src",
                 "jit_deopts", "jit_versions")

    def __init__(self, code: VMCode, head: int, end: int) -> None:
        self.code = code
        self.head = head
        self.end = end
        self.name = f"{code.name or '<body>'}@{head}"
        self.heat = 0
        self.jit = None
        self.jit_src = None
        self.jit_deopts = 0
        self.jit_versions = 0


def loop_back_edges(instrs) -> Dict[int, int]:
    """Map every loop head to its back edge.  Only loops jump
    backwards (``continue`` and the back edge itself, both to the
    head), so a loop's back edge is the last backward ``JUMP`` to its
    head."""
    ends = {}
    for index, inst in enumerate(instrs):
        if inst[0] == OP_JUMP and inst[1] <= index:
            ends[inst[1]] = index
    return ends


class CallSite:
    """Per-call-site metadata carried by ``CALL``: the argument
    registers, the planner's verdict on the send's dfall check
    (``elide_dfall``), and the polymorphic inline cache (receiver class
    name -> ``(minfo, leaf code or None, transparent)``)."""

    __slots__ = ("name", "span", "arg_regs", "elide_dfall",
                 "recv_is_this", "ic", "heat")

    def __init__(self, name, span, arg_regs, elide_dfall,
                 recv_is_this) -> None:
        self.name = name
        self.span = span
        self.arg_regs = arg_regs
        self.elide_dfall = elide_dfall
        self.recv_is_this = recv_is_this
        self.ic: Dict[str, tuple] = {}
        #: Sends through this site toward the JIT's per-call-site
        #: hotness threshold (engine="jit" only; see repro.lang.jit).
        self.heat = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<site .{self.name} args={self.arg_regs}>"


class _Lowering:
    """One body's lowering state: a growing instruction list (mutable
    4-ish-lists until ``finish`` freezes them to tuples), the constant
    pool, and the compile-time scope (name -> slot, shadowing gets a
    fresh slot, ``push``/``pop`` save only name visibility)."""

    def __init__(self, interp) -> None:
        self.interp = interp
        self.instrs: List[list] = []
        self.consts: List[object] = []
        self.const_map: Dict[tuple, int] = {}
        self.names: Dict[str, int] = {}
        self._saved: List[Dict[str, int]] = []
        self.n_slots = 0
        #: Stack of (break-patch list, continue target, handler depth).
        self.loops: List[list] = []
        self.handler_depth = 0

    # -- infrastructure ------------------------------------------------

    def emit(self, *inst) -> int:
        index = len(self.instrs)
        self.instrs.append(list(inst))
        return index

    def here(self) -> int:
        return len(self.instrs)

    def patch(self, indices) -> None:
        target = len(self.instrs)
        for index in indices:
            self.instrs[index][1] = target

    def const(self, value) -> int:
        key = (value.__class__, value)
        index = self.const_map.get(key)
        if index is None:
            index = len(self.consts)
            self.consts.append(value)
            self.const_map[key] = index
        return -(index + 1)

    def alloc(self) -> int:
        slot = self.n_slots
        self.n_slots = slot + 1
        return slot

    def temp(self) -> int:
        return self.alloc()

    def push_names(self) -> None:
        self._saved.append(dict(self.names))

    def pop_names(self) -> None:
        self.names = self._saved.pop()

    def finish(self, nparams, name, param_names) -> VMCode:
        self.emit(OP_FALLOFF)
        instrs = tuple(tuple(inst) for inst in self.instrs)
        template = [None] * self.n_slots + list(reversed(self.consts))
        return VMCode(instrs, template, nparams, self.n_slots,
                      tuple(self.consts), name, tuple(param_names))

    # -- statements ----------------------------------------------------

    def stmt(self, stmt) -> None:
        cls = stmt.__class__
        if cls is ast.Block:
            self.push_names()
            for inner in stmt.stmts:
                self.stmt(inner)
            self.pop_names()
            return
        if cls is ast.ExprStmt:
            self.expr(stmt.expr)
            return
        if cls is ast.Assign:
            self._stmt_assign(stmt)
            return
        if cls is ast.LocalVarDecl:
            self._stmt_local(stmt)
            return
        if cls is ast.If:
            self._stmt_if(stmt)
            return
        if cls is ast.While:
            self._stmt_while(stmt)
            return
        if cls is ast.Return:
            self._stmt_return(stmt)
            return
        if cls is ast.Foreach:
            self._stmt_foreach(stmt)
            return
        if cls is ast.Break:
            self._stmt_break()
            return
        if cls is ast.Continue:
            self._stmt_continue()
            return
        if cls is ast.TryCatch:
            self._stmt_try(stmt)
            return
        if cls is ast.Throw:
            self.emit(OP_THROW, self.expr(stmt.expr))
            return
        raise StuckError(  # pragma: no cover
            f"cannot lower statement {type(stmt).__name__}")

    def _stmt_local(self, stmt) -> None:
        # A fresh slot, but the *name* binds only after the initializer
        # is lowered: ``int x = x;`` reads the outer x, exactly like the
        # typechecker (and the tree walk) scope it.
        slot = self.alloc()
        if stmt.init is not None:
            reg = self.expr(stmt.init, dst=slot)
            if reg != slot:
                self.emit(OP_MOVE, slot, reg)
        else:
            default = self.interp._default_value(
                getattr(stmt, "resolved_type", ty.NULL))
            self.emit(OP_MOVE, slot, self.const(default))
        self.names[stmt.name] = slot

    def _stmt_assign(self, stmt) -> None:
        target = stmt.target
        value = stmt.value
        if target.__class__ is ast.Var:
            name = target.name
            slot = self.names.get(name)
            if slot is not None:
                if (value.__class__ is ast.Binary
                        and value.op in ("+", "-")
                        and value.left.__class__ is ast.Var
                        and not value.left.implicit_elim
                        and self.names.get(value.left.name) == slot
                        and value.right.__class__ in (ast.IntLit,
                                                      ast.FloatLit)):
                    lit = value.right.value
                    delta = lit if value.op == "+" else -lit
                    self.emit(OP_INC, slot, delta, value.op, lit)
                    return
                reg = self.expr(value, dst=slot)
                if reg != slot:
                    self.emit(OP_MOVE, slot, reg)
                return
            # Not a visible local: a field of ``this`` (or an error).
            src = self._field_add_operand(stmt, name)
            if src is not None:
                self.emit(OP_FIELD_ADD, name, src)
                return
            reg = self.expr(value)
            self.emit(OP_SETF_THIS, name, reg)
            return
        assert target.__class__ is ast.FieldAccess
        # Value before receiver, matching the tree walk.
        val = self.expr(value)
        obj = self.expr(target.obj)
        self.emit(OP_SETF, target.name, obj, val)

    def _field_add_operand(self, stmt, name) -> Optional[int]:
        """``this.f = this.f + operand`` with a pure operand fuses to
        ``FIELD_ADD``; returns the operand register, or None."""
        value = stmt.value
        if value.__class__ is not ast.Binary or value.op != "+":
            return None
        left = value.left
        if (left.__class__ is not ast.Var or left.name != name
                or left.implicit_elim
                or self.names.get(name) is not None
                or left.resolved_kind != "field"
                or stmt.target.resolved_kind != "field"):
            return None
        right = value.right
        if right.__class__ in (ast.IntLit, ast.FloatLit):
            return self.const(right.value)
        if right.__class__ is ast.Var and not right.implicit_elim:
            slot = self.names.get(right.name)
            if slot is not None:
                return slot
        return None

    def _stmt_if(self, stmt) -> None:
        exits: List[int] = []
        self.cond_false(stmt.cond, exits)
        self.stmt(stmt.then)
        if stmt.otherwise is None:
            self.patch(exits)
            return
        end = self.emit(OP_JUMP, None)
        self.patch(exits)
        self.stmt(stmt.otherwise)
        self.patch([end])

    def _stmt_while(self, stmt) -> None:
        head = self.here()
        # One fuel charge per iteration at the loop head: every backedge
        # (including ``continue``) passes through it, so even
        # ``while (true) { continue; }`` exhausts deterministically.
        self.emit(OP_FUEL)
        exits: List[int] = []
        self.cond_false(stmt.cond, exits)
        self.loops.append([[], head, self.handler_depth])
        self.stmt(stmt.body)
        self.emit(OP_JUMP, head)
        breaks = self.loops.pop()[0]
        self.patch(exits + breaks)

    def _stmt_foreach(self, stmt) -> None:
        iterable = self.expr(stmt.iterable)
        state = self.temp()
        self.emit(OP_FOREACH_INIT, state, iterable)
        self.push_names()
        var_slot = self.alloc()
        self.names[stmt.var_name] = var_slot
        head = self.here()
        iter_index = self.emit(OP_FOREACH_ITER, None, state, var_slot)
        self.loops.append([[], head, self.handler_depth])
        self.stmt(stmt.body)
        self.emit(OP_JUMP, head)
        breaks = self.loops.pop()[0]
        self.patch([iter_index] + breaks)
        self.pop_names()

    def _stmt_return(self, stmt) -> None:
        expr = stmt.expr
        if expr is None:
            self.emit(OP_RETURN_NONE)
            return
        if (expr.__class__ is ast.Var and expr.resolved_kind == "field"
                and not expr.implicit_elim
                and self.names.get(expr.name) is None):
            self.emit(OP_RET_FIELD, expr.name)
            return
        self.emit(OP_RETURN, self.expr(expr))

    def _unwind_to(self, depth) -> None:
        for _ in range(self.handler_depth - depth):
            self.emit(OP_POP_HANDLER)

    def _stmt_break(self) -> None:
        # The typechecker rejects ``break``/``continue`` outside a loop.
        breaks, _cont, depth = self.loops[-1]
        self._unwind_to(depth)
        breaks.append(self.emit(OP_JUMP, None))

    def _stmt_continue(self) -> None:
        _breaks, cont, depth = self.loops[-1]
        self._unwind_to(depth)
        self.emit(OP_JUMP, cont)

    def _stmt_try(self, stmt) -> None:
        exc_slot = self.alloc()
        push = self.emit(OP_PUSH_HANDLER, None, exc_slot)
        self.handler_depth += 1
        self.stmt(stmt.body)
        self.handler_depth -= 1
        self.emit(OP_POP_HANDLER)
        end = self.emit(OP_JUMP, None)
        self.patch([push])
        self.push_names()
        self.names[stmt.exc_var] = exc_slot
        self.stmt(stmt.handler)
        self.pop_names()
        self.patch([end])

    # -- conditions (short-circuit jump lowering) ----------------------

    def cond_false(self, expr, patches) -> None:
        """Emit jumps (appended to ``patches``) taken when ``expr`` is
        false; falls through when true.  Mirrors the walk's
        ``_truth``-checked short-circuit evaluation."""
        cls = expr.__class__
        if cls is ast.Binary:
            op = expr.op
            if op == "&&":
                self.cond_false(expr.left, patches)
                self.cond_false(expr.right, patches)
                return
            if op == "||":
                taken: List[int] = []
                self.cond_true(expr.left, taken)
                self.cond_false(expr.right, patches)
                self.patch(taken)
                return
            fused = _JF_MAP.get(op)
            if fused is not None:
                left = self.expr(expr.left)
                right = self.expr(expr.right)
                patches.append(self.emit(fused, None, left, right))
                return
        elif cls is ast.Unary and expr.op == "!":
            self.cond_true(expr.expr, patches)
            return
        elif cls is ast.BoolLit:
            if not expr.value:
                patches.append(self.emit(OP_JUMP, None))
            return
        patches.append(self.emit(OP_JF, None, self.expr(expr)))

    def cond_true(self, expr, patches) -> None:
        cls = expr.__class__
        if cls is ast.Binary:
            op = expr.op
            if op == "&&":
                fall: List[int] = []
                self.cond_false(expr.left, fall)
                self.cond_true(expr.right, patches)
                self.patch(fall)
                return
            if op == "||":
                self.cond_true(expr.left, patches)
                self.cond_true(expr.right, patches)
                return
            value_op = _BINOP_MAP.get(op)
            if value_op is not None and op in _JF_MAP:
                left = self.expr(expr.left)
                right = self.expr(expr.right)
                dest = self.temp()
                self.emit(value_op, dest, left, right)
                patches.append(self.emit(OP_JT, None, dest))
                return
        elif cls is ast.Unary and expr.op == "!":
            self.cond_false(expr.expr, patches)
            return
        elif cls is ast.BoolLit:
            if expr.value:
                patches.append(self.emit(OP_JUMP, None))
            return
        patches.append(self.emit(OP_JT, None, self.expr(expr)))

    # -- expressions ---------------------------------------------------

    def expr(self, expr, dst: Optional[int] = None) -> int:
        """Lower ``expr``; returns the register holding its value.
        ``dst`` is a destination hint honoured by instruction-producing
        nodes (slot/const operands are returned as-is unless a MOVE is
        forced)."""
        cls = expr.__class__
        if cls is ast.IntLit or cls is ast.FloatLit \
                or cls is ast.StringLit or cls is ast.BoolLit:
            return self._into(dst, self.const(expr.value))
        if cls is ast.NullLit:
            return self._into(dst, self.const(None))
        if cls is ast.Var:
            return self._expr_var(expr, dst)
        if cls is ast.Binary:
            return self._expr_binary(expr, dst)
        if cls is ast.MethodCall:
            return self._expr_call(expr, dst)
        if cls is ast.This:
            dest = self.temp() if dst is None else dst
            self.emit(OP_LOAD_THIS, dest)
            return dest
        if cls is ast.FieldAccess:
            obj = self.expr(expr.obj)
            dest = self.temp() if dst is None else dst
            self.emit(OP_GETF, dest, expr.name, obj,
                      MC_ELIM if expr.implicit_elim else MC_RAW)
            return dest
        if cls is ast.New:
            return self._expr_new(expr, dst)
        if cls is ast.Snapshot:
            src = self.expr(expr.expr)
            bounds = (getattr(expr, "resolved_bounds", None)
                      or (BOTTOM, TOP))
            dest = self.temp() if dst is None else dst
            self.emit(OP_SNAPSHOT, dest, src, bounds, expr.span,
                      expr.elide_bound)
            return dest
        if cls is ast.Cast:
            src = self.expr(expr.expr)
            target = getattr(expr, "resolved_target", None)
            if target is None:
                self.emit(OP_CAST_ERR, src)
                return src
            dest = self.temp() if dst is None else dst
            self.emit(OP_CAST, dest, src, target)
            return dest
        if cls is ast.MCaseExpr:
            spec = tuple(
                (None if b.mode_name is None else Mode(b.mode_name),
                 self.expr(b.expr))
                for b in expr.branches)
            built = self.temp()
            self.emit(OP_MCASE_BUILD, built, spec)
            if not expr.implicit_elim:
                return self._into(dst, built)
            return self._dispatch(built, dst)
        if cls is ast.MSelect:
            src = self.expr(expr.expr)
            atom = getattr(expr, "resolved_mode", expr.mode_name)
            dest = self.temp() if dst is None else dst
            self.emit(OP_MSELECT, dest, src, atom)
            return dest
        if cls is ast.Unary:
            src = self.expr(expr.expr)
            dest = self.temp() if dst is None else dst
            self.emit(OP_NEG if expr.op == "-" else OP_NOT, dest, src)
            return dest
        if cls is ast.ListLit:
            regs = tuple(self.expr(e) for e in expr.elements)
            dest = self.temp() if dst is None else dst
            self.emit(OP_LIST_BUILD, dest, regs)
            return dest
        if cls is ast.InstanceOf:
            src = self.expr(expr.expr)
            dest = self.temp() if dst is None else dst
            self.emit(OP_INSTANCEOF, dest, src, expr.class_name)
            return dest
        raise StuckError(  # pragma: no cover
            f"cannot lower expression {type(expr).__name__}")

    def _into(self, dst, reg) -> int:
        if dst is None or dst == reg:
            return reg
        self.emit(OP_MOVE, dst, reg)
        return dst

    def _dispatch(self, src, dst) -> int:
        """``MCASE_DISPATCH``: eliminate ``src`` at the frame's mode."""
        dest = self.temp() if dst is None else dst
        self.emit(OP_MCASE_DISPATCH, dest, src)
        return dest

    def _expr_var(self, expr, dst) -> int:
        name = expr.name
        slot = self.names.get(name)
        if slot is not None:
            if expr.implicit_elim:
                return self._dispatch(slot, dst)
            return self._into(dst, slot)
        mcase = MC_ELIM if expr.implicit_elim else MC_RAW
        kind = expr.resolved_kind
        if kind == "field":
            dest = self.temp() if dst is None else dst
            self.emit(OP_GETF_THIS, dest, name, mcase)
            return dest
        if kind == "mode":
            mode = self.interp._mode_by_name.get(name)
            if mode is not None:
                return self._into(dst, self.const(mode))
        elif kind == "native":
            dest = self.temp() if dst is None else dst
            self.emit(OP_LOAD_NATIVE, dest, name)
            return dest
        dest = self.temp() if dst is None else dst
        self.emit(OP_VAR_DYN, dest, name, mcase)
        return dest

    def _expr_binary(self, expr, dst) -> int:
        op = expr.op
        if op in ("&&", "||"):
            return self._bool_value(expr, dst)
        value_op = _BINOP_MAP.get(op)
        if value_op is None:  # pragma: no cover - parser rejects
            raise StuckError(f"unknown operator {op!r}")
        left = self.expr(expr.left)
        right = self.expr(expr.right)
        dest = self.temp() if dst is None else dst
        self.emit(value_op, dest, left, right)
        return dest

    def _bool_value(self, expr, dst) -> int:
        dest = self.temp() if dst is None else dst
        false_patches: List[int] = []
        self.cond_false(expr, false_patches)
        self.emit(OP_MOVE, dest, self.const(True))
        end = self.emit(OP_JUMP, None)
        self.patch(false_patches)
        self.emit(OP_MOVE, dest, self.const(False))
        self.patch([end])
        return dest

    def _expr_new(self, expr, dst) -> int:
        resolved = getattr(expr, "resolved_type", None)
        if resolved == ty.LIST:
            dest = self.temp() if dst is None else dst
            self.emit(OP_NEW_LIST, dest)
            return dest
        if resolved is None:
            raise StuckError("new-expression was not typechecked")
        info = self.interp.table.get(resolved.class_name)
        arg_regs = tuple(self.expr(a) for a in expr.args)
        dest = self.temp() if dst is None else dst
        self.emit(OP_NEW, dest, (info, resolved.mode_args, expr.span),
                  arg_regs)
        return dest

    def _expr_call(self, expr, dst) -> int:
        receiver = expr.receiver
        # Statically-known native receiver (``Sys.print`` & co, not
        # shadowed by a local): skip the generic send machinery.
        if (receiver is not None and receiver.__class__ is ast.Var
                and receiver.resolved_kind == "native"
                and self.names.get(receiver.name) is None):
            arg_regs = tuple(self.expr(a) for a in expr.args)
            dest = self.temp() if dst is None else dst
            self.emit(OP_CALL_NATIVE, dest,
                      (receiver.name, expr.name), arg_regs)
            return dest
        if receiver is None or receiver.__class__ is ast.This:
            recv_reg: Optional[int] = None
            recv_is_this = True
        else:
            recv_reg = self.expr(receiver)
            recv_is_this = False
        site = CallSite(expr.name, expr.span,
                        tuple(self.expr(a) for a in expr.args),
                        expr.elide_dfall, recv_is_this)
        if not expr.implicit_elim:
            dest = self.temp() if dst is None else dst
            self.emit(OP_CALL, dest, site, recv_reg)
            return dest
        result = self.temp()
        self.emit(OP_CALL, result, site, recv_reg)
        return self._dispatch(result, dst)


def lower_body(interp, block, param_names,
               name: Optional[str] = None) -> VMCode:
    """Lower a method/constructor/attributor body."""
    lowering = _Lowering(interp)
    for pname in param_names:
        lowering.names[pname] = lowering.alloc()
    lowering.stmt(block)
    return lowering.finish(len(param_names), name, param_names)


def lower_expr(interp, expr, name: Optional[str] = None) -> VMCode:
    """Lower a standalone expression (field initializers)."""
    lowering = _Lowering(interp)
    reg = lowering.expr(expr)
    lowering.emit(OP_RETURN, reg)
    return lowering.finish(0, name, ())


# ---------------------------------------------------------------------------
# Profiling instrumentation (``repro profile --engine vm``)

#: Opcodes whose first operand is an instruction index.
_JUMP_OPS = (OP_JUMP, OP_JF, OP_JT, OP_JF_LT, OP_JF_LE, OP_JF_GT,
             OP_JF_GE, OP_JF_EQ, OP_JF_NE, OP_FOREACH_ITER,
             OP_PUSH_HANDLER)


def instrument(code: VMCode) -> VMCode:
    """Weave a ``PROFILE`` pre-instruction before every instruction.

    Old instruction ``i`` lands at ``2*i + 1`` with its ``PROFILE`` at
    ``2*i``; jump targets are remapped ``t -> 2*t`` so every jump lands
    on the target's ``PROFILE`` first and the landing is counted.  The
    uninstrumented dispatch loop never sees ``PROFILE`` (the VM only
    instruments bodies it lowers while the profiler is enabled), so
    disabled-profiling cost is exactly zero.
    """
    instrs = []
    for inst in code.instrs:
        op = inst[0]
        instrs.append((OP_PROFILE, "op." + OP_NAMES[op]))
        if op in _JUMP_OPS and inst[1] is not None:
            inst = (op, inst[1] * 2) + inst[2:]
        instrs.append(inst)
    return VMCode(tuple(instrs), list(code.template), code.nparams,
                  code.n_slots, code.consts, code.name,
                  code.param_names)


# ---------------------------------------------------------------------------
# Disassembler (``repro disasm``)

#: Check-instruction annotations appended by the disassembler; keeping
#: the analysis handoff visible is the point of ``repro disasm``.  A
#: check's note names the check and, unless the planner elided it, the
#: probe transient checking runs instead.
_CHECK_NOTES = {
    OP_CALL: ("DFALL_CHECK", "shallow tag probe"),
    OP_SNAPSHOT: ("BOUND_CHECK", "tag-vs-bounds probe"),
}

#: Opcodes whose last operand is a policy rather than a register: a
#: read's mode-case operand, or a snapshot's ``elide`` flag.
_POLICY_OPS = (OP_GETF_THIS, OP_GETF, OP_VAR_DYN, OP_SNAPSHOT)


def _check_note(inst, transient) -> Optional[str]:
    op = inst[0]
    if op == OP_MCASE_DISPATCH:
        return ";; MCASE_DISPATCH (implicit elimination)"
    if op not in _CHECK_NOTES:
        return None
    check, probe = _CHECK_NOTES[op]
    elided = inst[2].elide_dfall if op == OP_CALL else inst[5]
    if elided:
        return f";; {check} elided by repro.analysis"
    if transient:
        return f";; {check} (transient: {probe})"
    return f";; {check}"


def _split_operands(inst):
    """An instruction's operands as ``(jump target or None, operands
    that may name registers, literal operands, policy operand or
    None)``."""
    op = inst[0]
    operands = inst[1:]
    target = policy = None
    if op in _JUMP_OPS and operands:
        target, operands = operands[0], operands[1:]
    elif op in _POLICY_OPS:
        operands, policy = operands[:-1], operands[-1]
    if op == OP_INC:
        # (slot, delta, op, lit): only the slot is a register.
        return target, operands[:1], operands[1:], policy
    return target, operands, (), policy


def _operand_slots(value, out) -> None:
    """Add the frame slots ``value`` names to ``out``; the same walk
    as :func:`_render_operand`."""
    if value.__class__ is int:
        if value >= 0:
            out.add(value)
    elif isinstance(value, CallSite):
        for reg in value.arg_regs:
            _operand_slots(reg, out)
    elif isinstance(value, tuple):
        for item in value:
            _operand_slots(item, out)


def named_slots(instrs) -> List[int]:
    """The frame slots an instruction sequence reads or writes, in
    order: what a compiled loop region loads on entry and stores back
    at its exit."""
    out = set()
    for inst in instrs:
        _target, operands, _literals, _policy = _split_operands(inst)
        for value in operands:
            _operand_slots(value, out)
    return sorted(out)


def _render_operand(code: VMCode, value) -> str:
    if isinstance(value, int) and not isinstance(value, bool):
        if value < 0:
            return f"k{-value - 1}={code.consts[-value - 1]!r}"
        return f"r{value}"
    if isinstance(value, CallSite):
        regs = ", ".join(_render_operand(code, r)
                         for r in value.arg_regs)
        return f".{value.name}({regs})"
    if isinstance(value, SourceSpan):
        return f"@{value.line}:{value.column}"
    if isinstance(value, tuple):
        return "(" + ", ".join(_render_operand(code, v)
                               for v in value) + ")"
    if value is None:
        return "this"
    return repr(value)


def _render_policy(op, value) -> str:
    """A policy operand: ``elide`` or ``check`` for a snapshot; for a
    read, ``elim`` or ``raw``."""
    if op == OP_SNAPSHOT:
        return "elide" if value else "check"
    return "raw" if value is MC_RAW else "elim"


def _render_new(code: VMCode, meta) -> str:
    """``NEW``'s ``(class info, mode arguments, span)`` as the class
    name with its mode arguments, then the span."""
    info, atoms, span = meta
    text = info.name
    if atoms:
        text += "@mode<" + ", ".join(ty.atom_str(a) for a in atoms) + ">"
    return text if span is None else f"{text} {_render_operand(code, span)}"


def disassemble(code: VMCode, transient: bool = False) -> str:
    """Pretty-print a lowered body with check-instruction annotations;
    ``transient`` is the check depth it runs under
    (``Interpreter._transient``), which only the annotations show."""
    header = (f"; {code.name or '<anonymous>'} "
              f"params={list(code.param_names)} "
              f"slots={code.n_slots} consts={len(code.consts)}")
    lines = [header]
    for index, inst in enumerate(code.instrs):
        op = inst[0]
        parts = [OP_NAMES.get(op, f"OP<{op}>")]
        target, operands, literals, policy = _split_operands(inst)
        if op in _JUMP_OPS:
            parts.append(f"->{target}")
        if op == OP_NEW:
            parts.append(_render_operand(code, operands[0]))
            parts.append(_render_new(code, operands[1]))
            operands = operands[2:]
        parts.extend(_render_operand(code, value) for value in operands)
        parts.extend(repr(value) for value in literals)
        if op in _POLICY_OPS:
            parts.append(_render_policy(op, policy))
        line = f"  {index:4d}  " + " ".join(parts)
        note = _check_note(inst, transient)
        if note:
            line = f"{line:<52s} {note}"
        lines.append(line)
    return "\n".join(lines)
