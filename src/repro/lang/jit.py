"""The trace-JIT: ENT's fourth execution engine (``--engine jit``).

The register VM (:mod:`repro.lang.vm`) dispatches one opcode at a time.
This module removes that last layer of interpretation on hot paths: when
a body or loop crosses a hotness threshold (counted per call, and per
loop head at the ``FUEL``/``FOREACH_ITER`` charge points), its register
bytecode is translated to *specialized Python source*, compiled with
:func:`compile`/``exec``, and installed as a ``jit`` entry point on the
unit's tiering record: the body's :class:`VMCode`, or the loop's
:class:`LoopRegion`.  One emitter serves both; it translates an
instruction range.  Three kinds of information are baked into the
emitted code:

* **Receiver-class guards** from the call site's inline cache: a
  monomorphic site emits a direct ``class_info is C`` identity test and,
  on success, enters the callee's register frame with no method lookup,
  no argument-descriptor interpretation and no dispatch loop.
* **Check policy** from the operands, known at compile time: a
  ``CALL`` whose site the planner elided (``CallSite.elide_dfall``)
  emits a bare ``dfall_elided`` counter bump (the engine-invariant
  accounting), any other ``CALL`` the inlined waterfall probe of the
  lattice's upward closure (``ModeLattice.up``) with the check
  kernel's fallback through :meth:`Interpreter._check_dfall`.  A
  ``SNAPSHOT`` keeps its helper call, except that under ``--checks
  transient`` (``Interpreter._transient``) a residual one with concrete
  bounds first emits the inlined tag-vs-bounds probe.  A read's
  mode-case operand picks its elimination code: only an ``MC_ELIM``
  read tests for a mode case, and a send tests neither its arguments
  nor its result (the typechecker placed every elimination).
* **Deopt guards**: when a specialization assumption breaks (the
  receiver's class changed under a hot site), the emitted code falls
  back to :meth:`VM._site_send` — the generic send with the dispatch
  loop's exact semantics — so results, stats, check counts and blame
  messages stay bit-identical to the VM.  Repeated deopts invalidate
  the compiled unit; recompiles are allowed (the inline cache has
  grown by then, so the offending site re-emits as a generic send)
  up to ``MAX_VERSIONS``, after which the unit is blacklisted to the
  VM.

Tiering is deliberately simple (two tiers, counter driven):

* method entry — calls count ``VMCode.heat`` (and the VM's leaf-call
  fast path counts per-site heat, ``CallSite.heat``); crossing
  ``HOT_CALL_THRESHOLD`` compiles the whole callee, and subsequent
  sends enter ``code.jit`` directly;
* on-stack replacement — every loop-head charge (one per iteration)
  counts that loop's ``LoopRegion.heat``; crossing
  ``HOT_LOOP_THRESHOLD`` compiles just that loop, ``[head, back
  edge]``, and moves the activation into it mid-loop.  The region
  loads the registers its instructions name, and at the loop's one
  exit (``back edge + 1``) stores them back and returns
  :data:`LOOP_EXIT`, so the VM resumes after the loop.  A body that
  already has a whole-body version OSRs into that instead (its
  ``_pc >= 0`` entry reloads every slot).

The tier stays armed under a tracer or profiler.  There the VM's leaf
fast path and inline check probes are off, so no inline-cache entry
carries a leaf body and compiled code sends through ``_invoke`` /
``_site_send`` and checks through the check kernel, emitting every
event, call-site count and check count the VM emits.  An
``instrument()``ed body's ``PROFILE`` instructions compile to inline
``bump(label, current_mode)`` calls, so ``repro profile --engine jit``
profiles the compiled tier with the VM's labels and counts, plus
``engine.jit_compile`` for compile time.  The profiler's and tracer's
bindings exist only in profiled and traced compiles, so unprofiled
listings (``repro disasm --jit``) keep their ``_gN`` numbering.

Step accounting is charged at the same three points as the VM (one per
activation, one per ``FUEL``, one per ``FOREACH_ITER`` element), so even
``steps`` — engine-defined and excluded from the differential suite —
matches the VM exactly, and the divergence bound holds unchanged.
"""

from __future__ import annotations

from functools import partial

from repro.core.checks import eliminate
from repro.core.errors import StuckError
from repro.core.modes import TOP, Mode
from repro.lang.bytecode import (
    OP_ADD, OP_CALL, OP_CALL_NATIVE, OP_CAST, OP_CAST_ERR, OP_DIV,
    OP_EQ, OP_FALLOFF, OP_FIELD_ADD, OP_FOREACH_INIT, OP_FOREACH_ITER,
    OP_FUEL, OP_GE, OP_GETF, OP_GETF_THIS, OP_GT, OP_INC, OP_INSTANCEOF,
    OP_JF, OP_JF_EQ, OP_JF_GE, OP_JF_GT, OP_JF_LE, OP_JF_LT, OP_JF_NE,
    OP_JT, OP_JUMP, OP_LE, OP_LIST_BUILD, OP_LOAD_NATIVE, OP_LOAD_THIS,
    OP_LT, OP_MCASE_BUILD, OP_MCASE_DISPATCH, OP_MOD, OP_MOVE,
    OP_MSELECT, OP_MUL, OP_NE, OP_NEG, OP_NEW, OP_NEW_LIST, OP_NOT,
    OP_POP_HANDLER, OP_PROFILE, OP_PUSH_HANDLER, OP_RETURN,
    OP_RETURN_NONE, OP_RET_FIELD, OP_SETF, OP_SETF_THIS, OP_SNAPSHOT,
    OP_SUB, OP_THROW, OP_VAR_DYN, LOOP_EXIT, MC_ELIM, LoopRegion,
    _JUMP_OPS, named_slots)
from repro.lang.natives import NATIVE_STATIC_CLASSES

__all__ = ["JITUnsupported", "compile_body", "jit_source",
           "HOT_CALL_THRESHOLD", "HOT_LOOP_THRESHOLD", "DEOPT_LIMIT",
           "MAX_VERSIONS"]

#: Leaf sends through one call site before the callee body is compiled.
HOT_CALL_THRESHOLD = 16
#: Back edges of one loop before that loop compiles for OSR entry.
HOT_LOOP_THRESHOLD = 36
#: Guard failures on one compiled body or region before it is
#: invalidated.
DEOPT_LIMIT = 8
#: Compiled versions per body or region (initial + recompiles) before
#: it is blacklisted back to the VM for good.
MAX_VERSIONS = 3


class JITUnsupported(Exception):
    """Raised (and caught by ``_jit_compile``) when a body contains an
    instruction the emitter refuses to translate; the body is then
    blacklisted and keeps running on the VM."""


#: Negated comparison for the fused jump-if-false fast paths.
_JF_NEGATED = {OP_JF_LT: (">=", "<"), OP_JF_LE: (">", "<="),
               OP_JF_GT: ("<=", ">"), OP_JF_GE: ("<", ">=")}

_ARITH = {OP_ADD: ("+", None), OP_SUB: ("-", None), OP_MUL: ("*", None),
          OP_DIV: ("/", "_java_div"), OP_MOD: ("%", "_java_mod")}

_CMP = {OP_LT: "<", OP_LE: "<=", OP_GT: ">", OP_GE: ">="}

_TERMINATORS = frozenset((OP_RETURN, OP_RETURN_NONE, OP_FALLOFF,
                          OP_RET_FIELD, OP_THROW, OP_CAST_ERR))

_SCALARS = (int, float, str, bool, type(None))


class _Emitter:
    """One compilation unit's translation state: the line buffer, the
    exec-globals namespace, and an identity memo for objects bound into
    it.  The unit is a whole body (a :class:`VMCode`) or one of its
    loops (a :class:`LoopRegion`); either way the emitter translates
    the instruction range ``[lo, hi]`` of the body's stream, and the
    unit itself is the tiering record its deopts report to."""

    def __init__(self, vm, unit) -> None:
        self.vm = vm
        self.interp = vm.interp
        self.unit = unit
        self.region = unit if unit.__class__ is LoopRegion else None
        self.code = unit.code if self.region is not None else unit
        self.lines = []
        self.globals = {}
        self._bound = {}

    # -- small helpers --------------------------------------------------

    def w(self, depth: int, text: str) -> None:
        self.lines.append("    " * depth + text)

    def bind(self, obj, name=None) -> str:
        """Bind ``obj`` into the function's globals; returns its name."""
        key = id(obj)
        bound = self._bound.get(key)
        if bound is None:
            bound = name or f"_g{len(self._bound)}"
            self._bound[key] = bound
            self.globals[bound] = obj
        return bound

    def lit(self, value) -> str:
        """A Python expression for a constant value: scalars inline as
        literals (``repr`` round-trips them), everything else (modes,
        spans, metadata tuples) binds as a global."""
        if isinstance(value, _SCALARS):
            return repr(value)
        return self.bind(value)

    def reg(self, r: int) -> str:
        """Register operand -> expression.  Non-negative operands are
        frame slots (Python locals); negative operands index the
        constant pool from the back (``regs[-k] == consts[k - 1]``)."""
        if r >= 0:
            return f"r{r}"
        return self.lit(self.code.consts[-r - 1])

    def _is_num(self, r: int) -> bool:
        """True when the operand is statically a non-bool number, so
        its runtime type test can be constant-folded away."""
        if r >= 0:
            return False
        v = self.code.consts[-r - 1]
        return type(v) is int or type(v) is float

    def _num_test(self, expr: str, r: int) -> str:
        if self._is_num(r):
            return "True"
        return f"(type({expr}) is int or type({expr}) is float)"

    def charge(self, depth: int) -> None:
        """One fuel step, specialized on the run's fixed budget."""
        fuel = self.interp._fuel
        if fuel is None:
            self.w(depth, "_stats.steps += 1")
            return
        msg = f"evaluation exceeded {fuel} steps (divergence bound)"
        self.w(depth, "_stats.steps = _s = _stats.steps + 1")
        self.w(depth, f"if _s > {fuel}:")
        self.w(depth + 1, f"raise FuelExhausted({msg!r})")

    # -- compilation ----------------------------------------------------

    def compile(self):
        src = self.source()
        namespace = dict(self.globals)
        name = self.unit.name or "body"
        exec(compile(src, f"<jit:{name}>", "exec"), namespace)
        return namespace["_jit_body"], src

    def source(self) -> str:
        code = self.code
        instrs = code.instrs
        region = self.region
        lo, hi = ((region.head, region.end) if region is not None
                  else (0, len(instrs) - 1))
        # Lowering gives a loop one exit, ``hi + 1``: every jump out of
        # a region lands there (``return`` and raises leave directly).
        exit_pc = hi + 1
        self._bind_runtime()

        unit = instrs[lo:exit_pc]
        has_handlers = any(inst[0] == OP_PUSH_HANDLER for inst in unit)
        leaders = {lo}
        for i, inst in enumerate(unit, lo):
            op = inst[0]
            if op in _JUMP_OPS:
                leaders.add(inst[1])
                leaders.add(i + 1)
            elif op == OP_FUEL:
                # Both sides of the charge are entry points: the loop
                # head is a jump target, and ``FUEL + 1`` is where OSR
                # resumes (the VM has already charged this iteration).
                leaders.add(i)
                leaders.add(i + 1)
            elif op in _TERMINATORS:
                leaders.add(i + 1)
        order = sorted(leader for leader in leaders if leader <= hi)

        w = self.w
        w(0, "def _jit_body(vm, regs, frame, _pc):")
        w(1, "this_obj = frame.this_obj")
        w(1, "current_mode = frame.current_mode")
        if region is not None:
            # Loop regions are only ever entered by OSR: adopt just the
            # registers this loop names from the VM activation.
            slots = named_slots(unit)
            for j in slots:
                w(1, f"r{j} = regs[{j}]")
        else:
            w(1, "if _pc < 0:")
            self.charge(2)
            for j in range(code.nparams):
                w(2, f"r{j} = regs[{j}]")
            if code.nparams < code.n_slots:
                tail = " = ".join(f"r{j}" for j in range(code.nparams,
                                                         code.n_slots))
                w(2, f"{tail} = None")
            w(2, "_pc = 0")
            w(1, "else:")
            if code.n_slots:
                # OSR entry: adopt the VM activation's live register
                # file.
                for j in range(code.n_slots):
                    w(2, f"r{j} = regs[{j}]")
            else:
                w(2, "pass")
        if has_handlers:
            w(1, "_handlers = []")
            w(1, "while True:")
            w(2, "try:")
            w(3, "while True:")
            depth = 4
        else:
            w(1, "while True:")
            depth = 2

        for index, leader in enumerate(order):
            end = order[index + 1] if index + 1 < len(order) else exit_pc
            w(depth, f"if _pc == {leader}:")
            terminated = False
            for i in range(leader, end):
                terminated = self.emit(depth + 1, i, instrs[i], end)
            if not terminated:
                w(depth + 1, f"_pc = {end}")
        if region is not None:
            # The loop exit: hand the registers back to the VM, which
            # resumes the activation at ``exit_pc``.
            w(depth, f"if _pc == {exit_pc}:")
            for j in slots:
                w(depth + 1, f"regs[{j}] = r{j}")
            w(depth + 1, "return _LOOP_EXIT")
        w(depth, "raise StuckError('jit: dispatch fell off the "
                 "instruction stream')  # pragma: no cover")

        if has_handlers:
            # Mirrors the VM's handler unwind: pop the innermost
            # handler, bind the message to its catch slot, resume.
            catch_slots = sorted({inst[2] for inst in unit
                                  if inst[0] == OP_PUSH_HANDLER})
            w(2, "except EnergyException as _exc:")
            w(3, "if not _handlers:")
            w(4, "raise")
            w(3, "_pc, _hs = _handlers.pop()")
            w(3, "_msg = str(_exc)")
            kw = "if"
            for slot in catch_slots:
                w(3, f"{kw} _hs == {slot}:")
                w(4, f"r{slot} = _msg")
                kw = "elif"
        return "\n".join(self.lines) + "\n"

    def _bind_runtime(self) -> None:
        from repro.lang import interp as interp_mod
        from repro.lang.natives import NativeRef, call_native_static
        from repro.lang.values import MCaseV as _MCaseV, ObjectV
        from repro.core.errors import (EnergyException, FuelExhausted,
                                       StuckError)

        interp = self.interp
        for name, obj in (
                ("_stats", interp.stats),
                ("_interp", interp),
                ("MCaseV", _MCaseV),
                ("ObjectV", ObjectV),
                ("StuckError", StuckError),
                ("EnergyException", EnergyException),
                ("FuelExhausted", FuelExhausted),
                ("_NO_RETURN", interp_mod._NO_RETURN),
                ("_Frame", interp_mod._Frame),
                ("_NativeRef", NativeRef),
                ("_java_div", interp_mod._java_div),
                ("_java_mod", interp_mod._java_mod),
                ("_LOOP_EXIT", LOOP_EXIT),
                ("_elim", partial(eliminate, interp, "interp")),
                ("_binop", interp._binary_op),
                ("_veq", interp.values_equal),
                ("_truth", interp._truth),
                ("_check_dfall", interp._check_dfall),
                ("_construct", interp._construct),
                ("_invoke", interp._invoke),
                ("_snapshot", interp._snapshot_value),
                ("_mselect", interp._mselect_value),
                ("_cast", interp._cast_value),
                ("_render", interp.render),
                ("_modes", interp._mode_by_name),
                ("_is_sub", interp.table.is_subclass),
                ("call_native_static", call_native_static),
        ):
            self.bind(obj, name)
        if interp.profiler.enabled:
            self.bind(interp.profiler.bump, "_bump")
        if interp.tracer.enabled:
            self.bind(interp.tracer, "_tracer")

    # -- per-instruction emission --------------------------------------

    def _branch_tail(self, depth, i, target, taken_expr) -> None:
        """The shared ``if taken -> target else fall through`` tail of
        every conditional jump (always the last instruction of its
        block)."""
        w = self.w
        w(depth, f"if {taken_expr}:")
        w(depth + 1, f"_pc = {target}")
        if target <= i:
            w(depth + 1, "continue")
        w(depth, "else:")
        w(depth + 1, f"_pc = {i + 1}")

    def emit(self, d, i, inst, block_end) -> bool:
        """Emit one instruction at depth ``d``; returns True when it
        terminates the block (no fall-through assignment needed)."""
        w = self.w
        op = inst[0]
        if op == OP_PROFILE:
            w(d, f"_bump({inst[1]!r}, current_mode)")
            return False
        if op == OP_FUEL:
            self.charge(d)
            return False
        if op == OP_JUMP:
            target = inst[1]
            w(d, f"_pc = {target}")
            if target <= i:
                w(d, "continue")
            return True
        if op in _JF_NEGATED:
            neg, sym = _JF_NEGATED[op]
            a, b = self.reg(inst[2]), self.reg(inst[3])
            w(d, f"_x = {a}")
            w(d, f"_y = {b}")
            w(d, f"if {self._num_test('_x', inst[2])} and "
                 f"{self._num_test('_y', inst[3])}:")
            w(d + 1, f"_t = _x {neg} _y")
            w(d, "else:")
            w(d + 1, f"_t = _binop({sym!r}, _x, _y) is False")
            self._branch_tail(d, i, inst[1], "_t")
            return True
        if op == OP_JF_EQ:
            self._branch_tail(
                d, i, inst[1],
                f"not _veq({self.reg(inst[2])}, {self.reg(inst[3])})")
            return True
        if op == OP_JF_NE:
            self._branch_tail(
                d, i, inst[1],
                f"_veq({self.reg(inst[2])}, {self.reg(inst[3])})")
            return True
        if op == OP_JF or op == OP_JT:
            jump_on, other = (("False", "True") if op == OP_JF
                              else ("True", "False"))
            target = inst[1]
            w(d, f"_x = {self.reg(inst[2])}")
            w(d, f"if _x is {jump_on}:")
            w(d + 1, f"_pc = {target}")
            if target <= i:
                w(d + 1, "continue")
            w(d, f"elif _x is not {other}:")
            w(d + 1, "raise StuckError('condition is not a boolean: '"
                     " + repr(_x))")
            w(d, "else:")
            w(d + 1, f"_pc = {i + 1}")
            return True
        if op == OP_CALL:
            self._emit_call(d, inst)
            return False
        if op in _ARITH:
            sym, java = _ARITH[op]
            a, b = self.reg(inst[2]), self.reg(inst[3])
            fast = (f"_java_{'div' if sym == '/' else 'mod'}(_x, _y)"
                    if java else f"_x {sym} _y")
            w(d, f"_x = {a}")
            w(d, f"_y = {b}")
            w(d, f"if {self._num_test('_x', inst[2])} and "
                 f"{self._num_test('_y', inst[3])}:")
            w(d + 1, f"r{inst[1]} = {fast}")
            w(d, "else:")
            w(d + 1, f"r{inst[1]} = _binop({sym!r}, _x, _y)")
            return False
        if op in _CMP:
            sym = _CMP[op]
            a, b = self.reg(inst[2]), self.reg(inst[3])
            w(d, f"_x = {a}")
            w(d, f"_y = {b}")
            w(d, f"if {self._num_test('_x', inst[2])} and "
                 f"{self._num_test('_y', inst[3])}:")
            w(d + 1, f"r{inst[1]} = _x {sym} _y")
            w(d, "else:")
            w(d + 1, f"r{inst[1]} = _binop({sym!r}, _x, _y)")
            return False
        if op == OP_INC:
            slot, delta, sym, literal = inst[1], inst[2], inst[3], inst[4]
            w(d, f"_x = r{slot}")
            w(d, "if type(_x) is int or type(_x) is float:")
            w(d + 1, f"r{slot} = _x + {delta!r}")
            w(d, "else:")
            w(d + 1, f"r{slot} = _binop({sym!r}, _x, {self.lit(literal)})")
            return False
        if op == OP_EQ:
            w(d, f"r{inst[1]} = _veq({self.reg(inst[2])}, "
                 f"{self.reg(inst[3])})")
            return False
        if op == OP_NE:
            w(d, f"r{inst[1]} = not _veq({self.reg(inst[2])}, "
                 f"{self.reg(inst[3])})")
            return False
        if op == OP_MOVE:
            w(d, f"r{inst[1]} = {self.reg(inst[2])}")
            return False
        if op == OP_RETURN:
            w(d, f"return {self.reg(inst[1])}")
            return True
        if op == OP_RETURN_NONE:
            w(d, "return None")
            return True
        if op == OP_FALLOFF:
            w(d, "return _NO_RETURN")
            return True
        if op == OP_GETF_THIS:
            name = inst[2]
            msg = f"unknown variable {name!r}"
            w(d, "try:")
            w(d + 1, f"_v = this_obj.fields[{name!r}]")
            w(d, "except (AttributeError, KeyError):")
            w(d + 1, f"raise StuckError({msg!r}) from None")
            self._mcase_read(d, inst[3], "this_obj")
            w(d, f"r{inst[1]} = _v")
            return False
        if op == OP_SETF_THIS:
            name = inst[1]
            w(d, f"if this_obj is not None and {name!r} in "
                 "this_obj.fields:")
            w(d + 1, f"this_obj.fields[{name!r}] = {self.reg(inst[2])}")
            w(d, "else:")
            w(d + 1, f"raise StuckError({f'unknown variable {name!r}'!r})")
            return False
        if op == OP_FIELD_ADD:
            name = inst[1]
            msg = f"unknown variable {name!r}"
            w(d, "if this_obj is None:")
            w(d + 1, f"raise StuckError({msg!r})")
            w(d, "_fl = this_obj.fields")
            w(d, "try:")
            w(d + 1, f"_v = _fl[{name!r}]")
            w(d, "except KeyError:")
            w(d + 1, f"raise StuckError({msg!r}) from None")
            w(d, f"_y = {self.reg(inst[2])}")
            w(d, "if (type(_v) is int or type(_v) is float) and "
                 f"{self._num_test('_y', inst[2])}:")
            w(d + 1, f"_fl[{name!r}] = _v + _y")
            w(d, "else:")
            w(d + 1, f"_fl[{name!r}] = _binop('+', _v, _y)")
            return False
        if op == OP_RET_FIELD:
            name = inst[1]
            msg = f"unknown variable {name!r}"
            w(d, "if this_obj is None:")
            w(d + 1, f"raise StuckError({msg!r})")
            w(d, "try:")
            w(d + 1, f"return this_obj.fields[{name!r}]")
            w(d, "except KeyError:")
            w(d + 1, f"raise StuckError({msg!r}) from None")
            return True
        if op == OP_GETF:
            name = inst[2]
            prefix = f"cannot access field {name!r} of "
            w(d, f"_ob = {self.reg(inst[3])}")
            w(d, "if not isinstance(_ob, ObjectV):")
            w(d + 1, f"raise StuckError({prefix!r} + repr(_ob))")
            w(d, f"_v = _ob.get_field({name!r})")
            self._mcase_read(d, inst[4], "_ob")
            w(d, f"r{inst[1]} = _v")
            return False
        if op == OP_SETF:
            w(d, f"_ob = {self.reg(inst[2])}")
            w(d, "if not isinstance(_ob, ObjectV):")
            w(d + 1, "raise StuckError('cannot assign field of ' + "
                     "repr(_ob))")
            w(d, f"_ob.set_field({inst[1]!r}, {self.reg(inst[3])})")
            return False
        return self._emit_rare(d, i, inst, op)

    def _mcase_read(self, d, mcase, owner) -> None:
        """A field read's mode-case operand, applied to ``_v`` read from
        ``owner``: for ``MC_ELIM``, eliminate at the owner's mode."""
        if mcase == MC_ELIM:
            w = self.w
            w(d, "if _v.__class__ is MCaseV:")
            w(d + 1, f"_o = {owner}.effective_mode")
            w(d + 1, "_v = _elim(_v, _o if _o is not None else "
                     "current_mode)")

    def _emit_rare(self, d, i, inst, op) -> bool:
        """The long tail: dynamic variable resolution, construction,
        snapshots, mode-case values, handlers, natives."""
        w = self.w
        if op == OP_VAR_DYN:
            name, mcase = inst[2], inst[3]
            w(d, f"_found, _v = frame.lookup({name!r})")
            w(d, "if not _found:")
            w(d + 1, f"if this_obj is not None and {name!r} in "
                     "this_obj.fields:")
            w(d + 2, f"_v = this_obj.fields[{name!r}]")
            self._mcase_read(d + 2, mcase, "this_obj")
            w(d + 1, "else:")
            w(d + 2, f"_v = _modes.get({name!r})")
            w(d + 2, "if _v is None:")
            if name in NATIVE_STATIC_CLASSES:
                w(d + 3, f"_v = _NativeRef({name!r})")
            else:
                w(d + 3,
                  f"raise StuckError({f'unknown variable {name!r}'!r})")
            if mcase == MC_ELIM:
                w(d, "elif _v.__class__ is MCaseV:")
                w(d + 1, "_v = _elim(_v, current_mode)")
            w(d, f"r{inst[1]} = _v")
            return False
        if op == OP_MCASE_DISPATCH:
            w(d, f"_v = {self.reg(inst[2])}")
            w(d, "if _v.__class__ is MCaseV:")
            w(d + 1, "_v = _elim(_v, current_mode)")
            w(d, f"r{inst[1]} = _v")
            return False
        if op == OP_MCASE_BUILD:
            branches = []
            default = None
            for mode, reg in inst[2]:
                if mode is None:
                    default = self.reg(reg)
                else:
                    branches.append(f"{self.bind(mode)}: {self.reg(reg)}")
            body = "{" + ", ".join(branches) + "}"
            if default is None:
                w(d, f"r{inst[1]} = MCaseV({body})")
            else:
                w(d, f"r{inst[1]} = MCaseV({body}, {default})")
            return False
        if op == OP_MSELECT:
            w(d, f"r{inst[1]} = _mselect({self.reg(inst[2])}, "
                 f"{self.lit(inst[3])}, frame)")
            return False
        if op == OP_SNAPSHOT:
            bounds, elide = inst[3], inst[5]
            if (not elide and self.interp._transient
                    and self.vm._dfall_plain
                    and bounds[0].__class__ is Mode
                    and bounds[1].__class__ is Mode):
                # Transient re-snapshot, concrete bounds: specialize
                # the passing probe to two set-membership tests; the
                # first snapshot, hooks, and failures take the helper.
                up = self.bind(self.interp.lattice.up, "_up")
                up_lo = self.bind(self.interp.lattice.up[bounds[0]])
                hi = self.bind(bounds[1])
                slow = (f"_snapshot(_v, {self.lit(bounds)}, frame, "
                        f"elide_bound=False, span={self.lit(inst[4])})")
                w(d, f"_v = {self.reg(inst[2])}")
                w(d, "if (_v.__class__ is ObjectV and _v.is_snapshot "
                     "and _interp.on_snapshot is None):")
                w(d + 1, "_m = _v.effective_mode")
                w(d + 1, f"if _m in {up_lo} and {hi} in {up}[_m]:")
                w(d + 2, "_stats.snapshots += 1")
                w(d + 2, "_stats.bound_checks += 1")
                w(d + 2, "_stats.shallow_checks += 1")
                w(d + 2, f"r{inst[1]} = _v")
                w(d + 1, "else:")
                w(d + 2, f"r{inst[1]} = {slow}")
                w(d, "else:")
                w(d + 1, f"r{inst[1]} = {slow}")
                return False
            w(d, f"r{inst[1]} = _snapshot({self.reg(inst[2])}, "
                 f"{self.lit(bounds)}, frame, elide_bound={elide!r}, "
                 f"span={self.lit(inst[4])})")
            return False
        if op == OP_CAST:
            w(d, f"r{inst[1]} = _cast({self.reg(inst[2])}, "
                 f"{self.lit(inst[3])}, frame)")
            return False
        if op == OP_CAST_ERR:
            w(d, "raise StuckError('cast was not typechecked')")
            return True
        if op == OP_NEW:
            info, atoms, span = inst[2]
            argv = ", ".join(self.reg(r) for r in inst[3])
            w(d, f"r{inst[1]} = _construct({self.bind(info)}, "
                 f"{self.bind(atoms)}, [{argv}], frame, "
                 f"{self.lit(span)})")
            return False
        if op == OP_NEW_LIST:
            w(d, f"r{inst[1]} = []")
            return False
        if op == OP_LIST_BUILD:
            argv = ", ".join(self.reg(r) for r in inst[2])
            w(d, f"r{inst[1]} = [{argv}]")
            return False
        if op == OP_INSTANCEOF:
            w(d, f"_v = {self.reg(inst[2])}")
            w(d, f"r{inst[1]} = (isinstance(_v, ObjectV) and "
                 f"_is_sub(_v.class_info.name, {inst[3]!r}))")
            return False
        if op == OP_NEG:
            w(d, f"_v = {self.reg(inst[2])}")
            w(d, "if type(_v) is int or type(_v) is float:")
            w(d + 1, f"r{inst[1]} = -_v")
            w(d, "else:")
            w(d + 1, "raise StuckError('cannot negate ' + repr(_v))")
            return False
        if op == OP_NOT:
            w(d, f"r{inst[1]} = not _truth({self.reg(inst[2])})")
            return False
        if op == OP_LOAD_THIS:
            w(d, f"r{inst[1]} = this_obj")
            return False
        if op == OP_LOAD_NATIVE:
            w(d, f"r{inst[1]} = _NativeRef({inst[2]!r})")
            return False
        if op == OP_CALL_NATIVE:
            cls_name, method = inst[2]
            argv = ", ".join(self.reg(r) for r in inst[3])
            w(d, f"r{inst[1]} = call_native_static(_interp, "
                 f"{cls_name!r}, {method!r}, [{argv}])")
            return False
        if op == OP_FOREACH_INIT:
            w(d, f"_v = {self.reg(inst[2])}")
            w(d, "if not isinstance(_v, list):")
            w(d + 1, "raise StuckError('foreach requires a List')")
            w(d, f"r{inst[1]} = [list(_v), 0]")
            return False
        if op == OP_FOREACH_ITER:
            target = inst[1]
            w(d, f"_st = {self.reg(inst[2])}")
            w(d, "_it = _st[0]")
            w(d, "_ix = _st[1]")
            w(d, "if _ix >= len(_it):")
            w(d + 1, f"_pc = {target}")
            if target <= i:
                w(d + 1, "continue")
            w(d, "else:")
            w(d + 1, "_st[1] = _ix + 1")
            w(d + 1, f"r{inst[3]} = _it[_ix]")
            self.charge(d + 1)
            w(d + 1, f"_pc = {i + 1}")
            return True
        if op == OP_PUSH_HANDLER:
            w(d, f"_handlers.append(({inst[1]}, {inst[2]}))")
            return False
        if op == OP_POP_HANDLER:
            w(d, "_handlers.pop()")
            return False
        if op == OP_THROW:
            w(d, f"_msg = _render({self.reg(inst[1])})")
            w(d, "_stats.energy_exceptions += 1")
            if self.interp.tracer.enabled:
                w(d, "_tracer.energy_exception(_msg, source='interp')")
            w(d, "raise EnergyException(_msg)")
            return True
        raise JITUnsupported(f"opcode {op!r} has no JIT emitter")

    # -- call sites -----------------------------------------------------

    def _emit_call(self, d, inst) -> None:
        """A message send.  Monomorphic sites (one inline-cache entry at
        compile time) emit a receiver-class identity guard and the VM
        leaf path inline; everything else — and every guard failure —
        goes through ``vm._site_send``, the generic send with the
        dispatch loop's exact semantics."""
        w = self.w
        site = inst[2]
        rv = inst[3]
        dst = inst[1]
        site_name = self.bind(site)
        if rv is None:
            recv = "this_obj"
            self_call = "True"
        else:
            recv = self.reg(rv)
            self_call = ("True" if site.recv_is_this
                         else f"(_recv is this_obj)")
        argv = [self.reg(r) for r in site.arg_regs]

        def generic(expr_recv, expr_self_call):
            return (f"vm._site_send({site_name}, {expr_recv}, "
                    f"[{', '.join(argv)}], frame, {expr_self_call})")

        entry = None
        if self.interp.options.inline_caches and len(site.ic) == 1:
            (cls_name, entry), = site.ic.items()
        if entry is not None:
            minfo, callee, transparent = entry
            if len(site.arg_regs) != len(minfo.param_names):
                entry = None  # arity mismatch: the generic path blames
        if entry is None:
            w(d, f"_recv = {recv}")
            w(d, f"r{dst} = {generic('_recv', self_call)}")
            return

        info = self.interp.table.get(cls_name)
        minfo_name = self.bind(minfo)
        span_expr = self.lit(site.span)
        w(d, f"_recv = {recv}")
        w(d, f"if _recv.__class__ is ObjectV and _recv.class_info is "
             f"{self.bind(info)}:")
        compile_self_call = rv is None or site.recv_is_this
        if callee is not None:
            w(d + 1, "_stats.messages += 1")
            if transparent:
                closure = "current_mode"
            else:
                w(d + 1, "_gm = _recv.effective_mode")
                dd = d + 1
                if not compile_self_call:
                    w(d + 1, "if _recv is not this_obj:")
                    dd = d + 2
                    self._emit_dfall(dd, site, minfo_name, span_expr)
                closure = "(_gm if _gm is not None else current_mode)"
            w(d + 1, f"_f2 = _Frame(_recv, _recv.bindings["
                     f"{self.lit(minfo.owner)}], {closure})")
            w(d + 1, f"_rg2 = {self.bind(callee.template)}.copy()")
            for j, expr in enumerate(argv):
                w(d + 1, f"_rg2[{j}] = {expr}")
            callee_name = self.bind(callee)
            w(d + 1, f"_jf = {callee_name}.jit")
            w(d + 1, "if _jf is None:")
            w(d + 2, f"{callee_name}.heat = _ch = "
                     f"{callee_name}.heat + 1")
            w(d + 2, f"if _ch >= {self.vm._hot_call}:")
            w(d + 3, f"_jf = vm._jit_compile({callee_name})")
            w(d + 1, "if _jf is not None:")
            w(d + 2, "_r = _jf(vm, _rg2, _f2, -1)")
            w(d + 1, "else:")
            w(d + 2, f"_r = vm._run({callee_name}, _rg2, _f2)")
            w(d + 1, "if _r is _NO_RETURN:")
            w(d + 2, "_r = None")
        else:
            # Known method but no leaf body (mode parameter, attributor,
            # generic method): skip the lookup, delegate to _invoke.
            args_list = "[" + ", ".join(argv) + "]"
            w(d + 1, f"_r = _invoke(_recv, {minfo_name}, {args_list}, "
                     f"frame, self_call={self_call}, span={span_expr}, "
                     f"elide_dfall={bool(site.elide_dfall)!r})")
        w(d + 1, f"r{dst} = _r")
        w(d, "else:")
        w(d + 1, f"vm._note_deopt({self.bind(self.unit)})")
        w(d + 1, f"r{dst} = {generic('_recv', self_call)}")

    def _emit_dfall(self, d, site, minfo_name, span_expr) -> None:
        """The waterfall check at a non-self leaf send: planner-elided
        counting, the inlined closure probe, or the full helper — the
        same split as the VM's leaf path."""
        w = self.w
        if site.elide_dfall and self.interp._elide_on:
            w(d, "_stats.dfall_elided += 1")
        elif self.vm._dfall_plain:
            up = self.bind(self.interp.lattice.up, "_up")
            top = self.bind(TOP, "_TOP")
            w(d, "_sm = (current_mode if current_mode is not None "
                 f"else {top})")
            w(d, "if _interp.on_message is None and _gm is not None "
                 f"and _sm in {up}[_gm]:")
            w(d + 1, "_stats.dfall_checks += 1")
            if self.interp._transient:
                w(d + 1, "_stats.shallow_checks += 1")
            w(d, "else:")
            w(d + 1, f"_check_dfall(_gm, current_mode, False, _recv, "
                     f"{minfo_name}, {span_expr})")
        else:
            w(d, f"_check_dfall(_gm, current_mode, False, _recv, "
                 f"{minfo_name}, {span_expr})")


def compile_body(vm, unit):
    """Translate ``unit`` — a whole body (:class:`VMCode`) or one loop
    (:class:`LoopRegion`) — to a specialized Python function.

    Returns ``(fn, source)``; raises :class:`JITUnsupported` when the
    unit contains an instruction the emitter cannot translate (the
    caller then blacklists it)."""
    return _Emitter(vm, unit).compile()


def jit_source(vm, code) -> str:
    """The emitted Python source for ``code`` (without installing it);
    used by ``repro disasm --jit``."""
    return _Emitter(vm, code).source()
