"""The register-bytecode VM: the engine under ENT's ``vm`` and ``jit`` tiers.

:mod:`repro.lang.bytecode` lowers typechecked bodies to flat register
code; this module runs it.  The dispatch loop is a hotness-ordered
``if``/``elif`` chain over integer opcodes (CPython 3.11's adaptive
interpreter specializes the compares), with three structural choices
that buy the speedup over the tree walk:

* **No control-flow exceptions** — ``return`` returns straight out of
  the dispatch function, ``break``/``continue`` are jumps resolved at
  lowering time, and ``try``/``catch`` keeps an explicit handler stack
  per activation instead of a Python ``try`` per statement.
* **Leaf-call fast path** — monomorphic sends to plain methods (no
  mode parameter) found in the per-call-site inline cache enter the
  callee's register frame directly: no ``_invoke``, no argument dict,
  just a template copy and a recursive ``_run``.  The dfall check (or
  its planner-elided counter) still runs — check counts are engine
  invariant.
* **Deferred argument elimination** — call arguments lower *raw* with a
  per-site descriptor saying how to eliminate a mode-case value once
  the callee's parameter types are known, so the common non-mcase send
  pays nothing.

One handler per ENT operation: a check's policy is an operand read in
the handler — the planner's verdict (``CallSite.elide_dfall``,
``SNAPSHOT``'s ``elide``) and a read's mode-case operand, which only a
mode-case value consults — and the check depth is
``Interpreter._transient``, which selects the inline transient probes.

Everything non-hot delegates to the interpreter's shared helpers
(``_snapshot_value``, ``_mselect_value``, ``_construct``, ``_invoke``,
``_binary_op``, …), the check kernel (``eliminate`` directly) and
``call_non_object``, so
semantics, stats and error messages stay identical across engines.
The fast path is disabled while a tracer or profiler is attached
(``_fast_ok``): those runs take the general ``_invoke`` path, which
emits the mode-transition and check events and the call-site profile.

Fuel model: one step at activation entry plus one per loop iteration
(the ``FUEL`` instruction at every ``while`` head, and ``FOREACH_ITER``
per element).  Step *counts* differ across engines by design — the
divergence bound is what must hold, and every backedge passes a charge
point — so the differential suite compares stats minus ``steps``.
"""

from __future__ import annotations

from repro.core.checks import NO_DEFAULT, eliminate
from repro.core.errors import (EnergyException, EntRuntimeError,
                               FuelExhausted, StuckError)
from repro.core.modes import TOP, Mode
from repro.lang.bytecode import (  # noqa: F401 (re-exported for tests)
    OP_ADD, OP_CALL, OP_CALL_NATIVE, OP_CAST, OP_CAST_ERR, OP_DIV,
    OP_EQ, OP_FALLOFF, OP_FIELD_ADD, OP_FOREACH_INIT, OP_FOREACH_ITER,
    OP_FUEL, OP_GE, OP_GETF, OP_GETF_THIS, OP_GT, OP_INC, OP_INSTANCEOF,
    OP_JF, OP_JF_EQ, OP_JF_GE, OP_JF_GT, OP_JF_LE, OP_JF_LT, OP_JF_NE,
    OP_JT, OP_JUMP, OP_LE, OP_LIST_BUILD, OP_LOAD_NATIVE, OP_LOAD_THIS,
    OP_LT, OP_MCASE_BUILD, OP_MCASE_DISPATCH, OP_MOD, OP_MOVE,
    OP_MSELECT, OP_MUL, OP_NE, OP_NEG, OP_NEW, OP_NEW_LIST, OP_NOT,
    OP_POP_HANDLER, OP_PROFILE, OP_PUSH_HANDLER, OP_RETURN,
    OP_RETURN_NONE, OP_RET_FIELD, OP_SETF, OP_SETF_THIS, OP_SNAPSHOT,
    OP_SUB, OP_THROW, OP_VAR_DYN, LOOP_EXIT, MC_ELIM, MC_RAW,
    LoopRegion, VMCode, instrument, loop_back_edges, lower_body,
    lower_expr)
from repro.lang.natives import (NATIVE_STATIC_CLASSES, NativeRef,
                                call_native_static, call_non_object)
from repro.lang.values import MCaseV, ObjectV
from repro.obs.prof import site_id

__all__ = ["VM", "JITVM"]

#: Inline caches stop growing at the profiler's megamorphic threshold
#: (:func:`repro.obs.prof.ic_class`): past ``_IC_CAP`` distinct receiver
#: classes a site dispatches uncached, so a megamorphic site costs one
#: method lookup per send instead of unbounded cache growth.
_IC_CAP = 4

#: Per-argument "no elimination" sentinel for :meth:`VM._site_send`.
#: The JIT passes resolved elimination *modes* (the descriptor registers
#: are dead by then), and a mode can legitimately be ``None``, so the
#: "descriptor was None" case needs its own marker.
_SKIP_ELIM = object()

#: Heat sentinel: far enough below any threshold that a blacklisted
#: body's counter can keep incrementing without ever re-triggering.
_COLD = -(1 << 60)


class VM:
    """Per-interpreter VM state: lowered-code caches and the dispatch
    loop.  One instance per :class:`~repro.lang.interp.Interpreter`
    (created when ``engine="vm"``)."""

    #: The JIT tier gate, probed on the hot paths; only the
    #: :class:`JITVM` subclass sets it, so the plain VM pays one false
    #: branch.
    _jit_on = False

    def __init__(self, interp) -> None:
        self.interp = interp
        #: id(body block) -> VMCode (bodies lower lazily, on first
        #: call).
        self._codes = {}
        #: (id(expr), want_mcase) -> VMCode for field initializers.
        self._expr_codes = {}
        #: id(body block) -> its declaration's name, so a body is named
        #: at its first lowering however that lowering is reached.
        self._names = _body_names(interp.table)
        #: Strong references backing the two id()-keyed caches above:
        #: if a cached AST node were garbage collected, its id could be
        #: reused by a *different* node and the cache would serve the
        #: wrong code.  Pinning every key's node makes the ids stable
        #: for the VM's lifetime (zero cost on the hit path).
        self._pins = []
        #: Leaf-call fast path gate: traced and profiled runs must go
        #: through ``_invoke`` so mode-transition events / call-site
        #: profiles are emitted.
        self._fast_ok = (not interp.tracer.enabled
                         and not interp.profiler.enabled)
        #: Gate for the inlined check probes (leaf sends and transient
        #: re-snapshots): only when the shared helpers would just count
        #: a passing check — no tracer events, no profiler counters;
        #: hooks are re-probed at dispatch — read the lattice's upward
        #: closure inline; anything else re-enters the helper.
        self._dfall_plain = (not interp.options.baseline
                             and not interp.tracer.enabled
                             and not interp.profiler.enabled)

    # ------------------------------------------------------------------
    # Entry points (wired as ``Interpreter._call_body`` /
    # ``_execute_expr``)

    def _lower(self, block, param_names, wants) -> VMCode:
        code = self._codes.get(id(block))
        if code is None:
            code = lower_body(self.interp, block, param_names,
                              wants=wants, name=self._names.get(id(block)))
            # Profiling gate: instrumentation is decided here, once per
            # body, never per instruction — disabled runs execute the
            # unmodified stream.
            if self.interp.profiler.enabled:
                code = instrument(code)
            self._codes[id(block)] = code
            self._pins.append(block)
        return code

    def call_body(self, block, param_names, frame, args, wants=()):
        """Run a method/constructor/attributor body; returns the return
        value, or ``interp._NO_RETURN`` when the body falls off the
        end."""
        code = self._lower(block, param_names, wants)
        if len(args) != code.nparams:
            # Callers (``_invoke``, ``_construct``) check arity with the
            # proper blame; this backstop keeps a direct-API misuse from
            # silently truncating or zero-filling parameters.
            raise StuckError(
                f"body expects {code.nparams} argument(s), "
                f"got {len(args)}")
        regs = code.template.copy()
        if args:
            regs[:len(args)] = args
        if self._jit_on:
            jfn = code.jit
            if jfn is None:
                code.heat = heat = code.heat + 1
                if heat >= self._hot_call:
                    jfn = self._jit_compile(code, frame.current_mode)
            if jfn is not None:
                return jfn(self, regs, frame, -1)
        return self._run(code, regs, frame)

    def execute_expr(self, expr, frame, want_mcase=False):
        """Run a standalone expression (field initializers)."""
        key = (id(expr), want_mcase)
        code = self._expr_codes.get(key)
        if code is None:
            code = lower_expr(self.interp, expr, want_mcase=want_mcase)
            if self.interp.profiler.enabled:
                code = instrument(code)
            self._expr_codes[key] = code
            self._pins.append(expr)
        return self._run(code, code.template.copy(), frame)

    def code_for_method(self, minfo) -> VMCode:
        return self._lower(minfo.decl.body, minfo.param_names, minfo.wants)

    # ------------------------------------------------------------------
    # Inline caches

    def _ic_miss(self, site, receiver):
        """Resolve a send on a cache miss; returns (and usually caches)
        ``(minfo, wants, leaf code or None, transparent)``."""
        interp = self.interp
        minfo = interp.table.method(receiver.class_info.name, site.name)
        if minfo is None:
            raise StuckError(
                f"no method {site.name!r} on class "
                f"{receiver.class_info.name}")
        wants = minfo.wants
        code = None
        if (self._fast_ok and minfo.mode_param is None
                and minfo.decl is not None):
            code = self.code_for_method(minfo)
        entry = (minfo, wants, code, receiver.class_info.transparent)
        reported = len(site.ic)
        if interp.options.inline_caches:
            if reported < _IC_CAP:
                site.ic[receiver.class_info.name] = entry
                reported += 1
            else:
                # Megamorphic: the cache stays capped and this receiver
                # class dispatches uncached; report one past the cap so
                # the profiler's mono/poly/mega classification still
                # lands on "mega".
                reported = _IC_CAP + 1
        if interp.profiler.enabled:
            interp.profiler.ic_miss(site_id("call", site.span),
                                    site.name, reported)
        return entry

    def _site_send(self, site, receiver, argv, elim_modes, frame,
                   self_call):
        """Generic send for JIT-compiled code: a receiver-class guard
        failed (deopt) or the site never specialized.  Semantics —
        stats, check counts, blame messages — replicate the dispatch
        loop's CALL handler exactly, with the deferred eliminations
        already resolved to modes (``elim_modes`` pairs ``argv``;
        ``_SKIP_ELIM`` marks arguments whose descriptor was ``None``).
        Dispatch goes through ``_invoke`` rather than the leaf path:
        observables are identical and deopts are rare by construction.
        """
        interp = self.interp
        # A non-object receiver eliminates every mode-case argument.
        wants, nparams = (), 0
        is_object = receiver.__class__ is ObjectV
        if is_object:
            entry = (site.ic.get(receiver.class_info.name)
                     or self._ic_miss(site, receiver))
            minfo, wants, _callee, _transparent = entry
            nparams = len(minfo.param_names)
        if site.any_elim:
            for i, v in enumerate(argv):
                if (v.__class__ is MCaseV
                        and (i >= nparams or not wants[i])
                        and elim_modes[i] is not _SKIP_ELIM):
                    argv[i] = eliminate(interp, "interp", v,
                                        elim_modes[i])
        if not is_object:
            return call_non_object(interp, receiver, site.name, argv)
        if len(argv) != nparams:
            raise StuckError(
                f"method {minfo.owner}.{minfo.name} expects "
                f"{nparams} argument(s), got {len(argv)}")
        value = interp._invoke(receiver, minfo, argv, frame,
                               self_call=self_call, span=site.span,
                               elide_dfall=site.elide_dfall)
        if value.__class__ is MCaseV and not site.raw_result:
            value = eliminate(interp, "interp", value,
                              frame.current_mode)
        return value

    # ------------------------------------------------------------------
    # The dispatch loop

    def _run(self, code, regs, frame):
        interp = self.interp
        stats = interp.stats
        # One step per activation (bodies are charged again at every
        # loop head, so divergence is still bounded).
        stats.steps += 1
        fuel = interp._fuel
        if fuel is not None and stats.steps > fuel:
            raise FuelExhausted(
                f"evaluation exceeded {fuel} steps (divergence bound)")
        instrs = code.instrs
        pc = 0
        handlers = None
        current_mode = frame.current_mode
        this_obj = frame.this_obj
        while True:
            try:
                while True:
                    inst = instrs[pc]
                    op = inst[0]
                    pc += 1
                    if op == OP_FUEL:
                        stats.steps += 1
                        if fuel is not None and stats.steps > fuel:
                            raise FuelExhausted(
                                f"evaluation exceeded {fuel} steps "
                                f"(divergence bound)")
                        if self._jit_on and not handlers:
                            # On-stack replacement (``pc`` is already
                            # past the charge, which is exactly where
                            # the JIT's OSR entry resumes): into the
                            # body's compiled version if it has one,
                            # else into this loop's once it is hot,
                            # which hands back at the loop exit.
                            jfn = code.jit
                            if jfn is not None:
                                return jfn(self, regs, frame, pc)
                            loop = self._hot_loop_region(code, pc - 1,
                                                         current_mode)
                            if loop is not None:
                                value = loop.jit(self, regs, frame, pc)
                                if value is not LOOP_EXIT:
                                    return value
                                pc = loop.end + 1
                    elif op == OP_JF_LT:
                        a = regs[inst[2]]
                        b = regs[inst[3]]
                        t = type(a)
                        if t is int or t is float:
                            t = type(b)
                            if t is int or t is float:
                                if a >= b:
                                    pc = inst[1]
                                continue
                        if interp._binary_op("<", a, b) is False:
                            pc = inst[1]
                    elif op == OP_JF_LE:
                        a = regs[inst[2]]
                        b = regs[inst[3]]
                        t = type(a)
                        if t is int or t is float:
                            t = type(b)
                            if t is int or t is float:
                                if a > b:
                                    pc = inst[1]
                                continue
                        if interp._binary_op("<=", a, b) is False:
                            pc = inst[1]
                    elif op == OP_JF_GT:
                        a = regs[inst[2]]
                        b = regs[inst[3]]
                        t = type(a)
                        if t is int or t is float:
                            t = type(b)
                            if t is int or t is float:
                                if a <= b:
                                    pc = inst[1]
                                continue
                        if interp._binary_op(">", a, b) is False:
                            pc = inst[1]
                    elif op == OP_JF_GE:
                        a = regs[inst[2]]
                        b = regs[inst[3]]
                        t = type(a)
                        if t is int or t is float:
                            t = type(b)
                            if t is int or t is float:
                                if a < b:
                                    pc = inst[1]
                                continue
                        if interp._binary_op(">=", a, b) is False:
                            pc = inst[1]
                    elif op == OP_JF_EQ:
                        if not interp.values_equal(regs[inst[2]],
                                                   regs[inst[3]]):
                            pc = inst[1]
                    elif op == OP_JF_NE:
                        if interp.values_equal(regs[inst[2]],
                                               regs[inst[3]]):
                            pc = inst[1]
                    elif op == OP_CALL:
                        site = inst[2]
                        rv = inst[3]
                        if rv is None:
                            receiver = this_obj
                            self_call = True
                        else:
                            receiver = regs[rv]
                            self_call = (site.recv_is_this
                                         or receiver is this_obj)
                        if receiver.__class__ is ObjectV:
                            entry = (site.ic.get(receiver.class_info.name)
                                     or self._ic_miss(site, receiver))
                            minfo, wants, callee, transparent = entry
                            argv = [regs[r] for r in site.arg_regs]
                            nparams = len(minfo.param_names)
                            if site.any_elim:
                                elims = site.arg_elims
                                for i, v in enumerate(argv):
                                    if (v.__class__ is MCaseV
                                            and (i >= nparams
                                                 or not wants[i])):
                                        e = elims[i]
                                        if e is None:
                                            continue
                                        argv[i] = eliminate(
                                            interp, "interp", v,
                                            regs[e] if e >= 0
                                            else current_mode)
                            if len(argv) != nparams:
                                # After the eliminations: the walk
                                # evaluates (and eliminates) every
                                # argument before its arity check, so
                                # the stats must match up to the blame.
                                raise StuckError(
                                    f"method {minfo.owner}."
                                    f"{minfo.name} expects {nparams} "
                                    f"argument(s), got {len(argv)}")
                            if callee is not None:
                                # Leaf-call fast path: plain method,
                                # no tracer; enter the callee frame
                                # directly.
                                stats.messages += 1
                                if transparent:
                                    closure = current_mode
                                else:
                                    guard = receiver.effective_mode
                                    if not self_call:
                                        if (site.elide_dfall
                                                and interp._elide_on):
                                            stats.dfall_elided += 1
                                        # Inlined closure probe: a
                                        # passing check only bumps the
                                        # counters; failures re-enter
                                        # the full helper for the raise.
                                        elif (self._dfall_plain
                                              and interp.on_message is None
                                              and guard is not None
                                              and (current_mode
                                                   if current_mode
                                                   is not None else TOP)
                                              in interp.lattice.up[guard]):
                                            stats.dfall_checks += 1
                                            if interp._transient:
                                                stats.shallow_checks += 1
                                        else:
                                            interp._check_dfall(
                                                guard, current_mode,
                                                False, receiver, minfo,
                                                site.span)
                                    closure = (guard if guard is not None
                                               else current_mode)
                                regs2 = callee.template.copy()
                                if argv:
                                    regs2[:len(argv)] = argv
                                frame2 = _Frame(
                                    receiver,
                                    receiver.bindings[minfo.owner],
                                    closure)
                                if self._jit_on:
                                    # Tier up: per-call-site heat; a
                                    # hot site compiles its callee and
                                    # enters the JIT body directly.
                                    jfn = callee.jit
                                    if jfn is None:
                                        site.heat = h = site.heat + 1
                                        if h >= self._hot_call:
                                            jfn = self._jit_compile(
                                                callee)
                                    if jfn is not None:
                                        value = jfn(self, regs2,
                                                    frame2, -1)
                                    else:
                                        value = self._run(callee, regs2,
                                                          frame2)
                                else:
                                    value = self._run(callee, regs2,
                                                      frame2)
                                if value is _NO_RETURN:
                                    value = None
                            else:
                                value = interp._invoke(
                                    receiver, minfo, argv, frame,
                                    self_call=self_call, span=site.span,
                                    elide_dfall=site.elide_dfall)
                            if (value.__class__ is MCaseV
                                    and not site.raw_result):
                                value = eliminate(
                                    interp, "interp", value, current_mode)
                            regs[inst[1]] = value
                        else:
                            argv = [regs[r] for r in site.arg_regs]
                            if site.any_elim:
                                elims = site.arg_elims
                                for i, v in enumerate(argv):
                                    if v.__class__ is MCaseV:
                                        e = elims[i]
                                        if e is None:
                                            continue
                                        argv[i] = eliminate(
                                            interp, "interp", v,
                                            regs[e] if e >= 0
                                            else current_mode)
                            regs[inst[1]] = call_non_object(
                                interp, receiver, site.name, argv)
                    elif op == OP_INC:
                        v = regs[inst[1]]
                        t = type(v)
                        if t is int or t is float:
                            regs[inst[1]] = v + inst[2]
                        else:
                            regs[inst[1]] = interp._binary_op(
                                inst[3], v, inst[4])
                    elif op == OP_MOD:
                        a = regs[inst[2]]
                        b = regs[inst[3]]
                        t = type(a)
                        if t is int or t is float:
                            t = type(b)
                            if t is int or t is float:
                                regs[inst[1]] = _java_mod(a, b)
                                continue
                        regs[inst[1]] = interp._binary_op("%", a, b)
                    elif op == OP_JUMP:
                        pc = inst[1]
                    elif op == OP_FIELD_ADD:
                        name = inst[1]
                        if this_obj is None:
                            raise StuckError(f"unknown variable {name!r}")
                        fields = this_obj.fields
                        try:
                            v = fields[name]
                        except KeyError:
                            raise StuckError(
                                f"unknown variable {name!r}") from None
                        if v.__class__ is MCaseV:
                            owner = this_obj.effective_mode
                            v = eliminate(
                                interp, "interp", v,
                                owner if owner is not None
                                else current_mode)
                        b = regs[inst[2]]
                        t = type(v)
                        if t is int or t is float:
                            t = type(b)
                            if t is int or t is float:
                                fields[name] = v + b
                                continue
                        fields[name] = interp._binary_op("+", v, b)
                    elif op == OP_RET_FIELD:
                        name = inst[1]
                        if this_obj is None:
                            raise StuckError(f"unknown variable {name!r}")
                        try:
                            v = this_obj.fields[name]
                        except KeyError:
                            raise StuckError(
                                f"unknown variable {name!r}") from None
                        if v.__class__ is MCaseV:
                            owner = this_obj.effective_mode
                            return eliminate(
                                interp, "interp", v,
                                owner if owner is not None
                                else current_mode)
                        return v
                    elif op == OP_RETURN:
                        return regs[inst[1]]
                    elif op == OP_ADD:
                        a = regs[inst[2]]
                        b = regs[inst[3]]
                        t = type(a)
                        if t is int or t is float:
                            t = type(b)
                            if t is int or t is float:
                                regs[inst[1]] = a + b
                                continue
                        regs[inst[1]] = interp._binary_op("+", a, b)
                    elif op == OP_MOVE:
                        regs[inst[1]] = regs[inst[2]]
                    elif op == OP_GETF_THIS:
                        try:
                            v = this_obj.fields[inst[2]]
                        except (AttributeError, KeyError):
                            raise StuckError(
                                f"unknown variable {inst[2]!r}") from None
                        if v.__class__ is MCaseV:
                            v = _mcase_read(
                                interp, v, this_obj.effective_mode,
                                inst[3], current_mode, regs)
                        regs[inst[1]] = v
                    elif op == OP_SUB:
                        a = regs[inst[2]]
                        b = regs[inst[3]]
                        t = type(a)
                        if t is int or t is float:
                            t = type(b)
                            if t is int or t is float:
                                regs[inst[1]] = a - b
                                continue
                        regs[inst[1]] = interp._binary_op("-", a, b)
                    elif op == OP_MUL:
                        a = regs[inst[2]]
                        b = regs[inst[3]]
                        t = type(a)
                        if t is int or t is float:
                            t = type(b)
                            if t is int or t is float:
                                regs[inst[1]] = a * b
                                continue
                        regs[inst[1]] = interp._binary_op("*", a, b)
                    elif op == OP_DIV:
                        a = regs[inst[2]]
                        b = regs[inst[3]]
                        t = type(a)
                        if t is int or t is float:
                            t = type(b)
                            if t is int or t is float:
                                regs[inst[1]] = _java_div(a, b)
                                continue
                        regs[inst[1]] = interp._binary_op("/", a, b)
                    elif op == OP_LT:
                        a = regs[inst[2]]
                        b = regs[inst[3]]
                        t = type(a)
                        if t is int or t is float:
                            t = type(b)
                            if t is int or t is float:
                                regs[inst[1]] = a < b
                                continue
                        regs[inst[1]] = interp._binary_op("<", a, b)
                    elif op == OP_LE:
                        a = regs[inst[2]]
                        b = regs[inst[3]]
                        t = type(a)
                        if t is int or t is float:
                            t = type(b)
                            if t is int or t is float:
                                regs[inst[1]] = a <= b
                                continue
                        regs[inst[1]] = interp._binary_op("<=", a, b)
                    elif op == OP_GT:
                        a = regs[inst[2]]
                        b = regs[inst[3]]
                        t = type(a)
                        if t is int or t is float:
                            t = type(b)
                            if t is int or t is float:
                                regs[inst[1]] = a > b
                                continue
                        regs[inst[1]] = interp._binary_op(">", a, b)
                    elif op == OP_GE:
                        a = regs[inst[2]]
                        b = regs[inst[3]]
                        t = type(a)
                        if t is int or t is float:
                            t = type(b)
                            if t is int or t is float:
                                regs[inst[1]] = a >= b
                                continue
                        regs[inst[1]] = interp._binary_op(">=", a, b)
                    elif op == OP_EQ:
                        regs[inst[1]] = interp.values_equal(
                            regs[inst[2]], regs[inst[3]])
                    elif op == OP_NE:
                        regs[inst[1]] = not interp.values_equal(
                            regs[inst[2]], regs[inst[3]])
                    elif op == OP_JF:
                        v = regs[inst[2]]
                        if v is False:
                            pc = inst[1]
                        elif v is not True:
                            raise StuckError(
                                f"condition is not a boolean: {v!r}")
                    elif op == OP_JT:
                        v = regs[inst[2]]
                        if v is True:
                            pc = inst[1]
                        elif v is not False:
                            raise StuckError(
                                f"condition is not a boolean: {v!r}")
                    elif op == OP_SETF_THIS:
                        name = inst[1]
                        if (this_obj is not None
                                and name in this_obj.fields):
                            this_obj.fields[name] = regs[inst[2]]
                        else:
                            raise StuckError(f"unknown variable {name!r}")
                    elif op == OP_SETF:
                        obj = regs[inst[2]]
                        if not isinstance(obj, ObjectV):
                            raise StuckError(
                                f"cannot assign field of {obj!r}")
                        obj.set_field(inst[1], regs[inst[3]])
                    elif op == OP_GETF:
                        obj = regs[inst[3]]
                        if not isinstance(obj, ObjectV):
                            raise StuckError(
                                f"cannot access field {inst[2]!r} of "
                                f"{obj!r}")
                        v = obj.get_field(inst[2])
                        if v.__class__ is MCaseV:
                            v = _mcase_read(interp, v, obj.effective_mode,
                                            inst[4], current_mode, regs)
                        regs[inst[1]] = v
                    elif op == OP_VAR_DYN:
                        name = inst[2]
                        found, v = frame.lookup(name)
                        if not found:
                            if (this_obj is not None
                                    and name in this_obj.fields):
                                v = this_obj.fields[name]
                                if v.__class__ is MCaseV:
                                    v = _mcase_read(
                                        interp, v, this_obj.effective_mode,
                                        inst[3], current_mode, regs)
                            else:
                                v = interp._mode_by_name.get(name)
                                if v is None:
                                    if name in NATIVE_STATIC_CLASSES:
                                        v = NativeRef(name)
                                    else:
                                        raise StuckError(
                                            f"unknown variable {name!r}")
                        elif v.__class__ is MCaseV and inst[3] == MC_ELIM:
                            v = eliminate(interp, "interp", v, current_mode)
                        regs[inst[1]] = v
                    elif op == OP_MCASE_DISPATCH:
                        v = regs[inst[2]]
                        if v.__class__ is MCaseV:
                            v = eliminate(interp, "interp", v, current_mode)
                        regs[inst[1]] = v
                    elif op == OP_MCASE_BUILD:
                        branches = {}
                        default = NO_DEFAULT
                        for mode, reg in inst[2]:
                            if mode is None:
                                default = regs[reg]
                            else:
                                branches[mode] = regs[reg]
                        regs[inst[1]] = MCaseV(branches, default)
                    elif op == OP_MSELECT:
                        regs[inst[1]] = interp._mselect_value(
                            regs[inst[2]], inst[3], frame)
                    elif op == OP_SNAPSHOT:
                        src = regs[inst[2]]
                        # Transient re-snapshot: when the tag is
                        # already fixed and the bounds are concrete,
                        # the whole check is two set probes; anything
                        # else (first snapshot, hooks, symbolic
                        # bounds, failures) re-enters the shared
                        # helper, which owns the blame raise.
                        if (not inst[5] and interp._transient
                                and self._dfall_plain
                                and src.__class__ is ObjectV
                                and src.is_snapshot
                                and interp.on_snapshot is None):
                            bounds = inst[3]
                            lower = bounds[0]
                            upper = bounds[1]
                            if (lower.__class__ is Mode
                                    and upper.__class__ is Mode):
                                up = interp.lattice.up
                                mode = src.effective_mode
                                if (mode in up[lower]
                                        and upper in up[mode]):
                                    stats.snapshots += 1
                                    stats.bound_checks += 1
                                    stats.shallow_checks += 1
                                    regs[inst[1]] = src
                                    continue
                        regs[inst[1]] = interp._snapshot_value(
                            src, inst[3], frame,
                            elide_bound=inst[5], span=inst[4])
                    elif op == OP_CAST:
                        regs[inst[1]] = interp._cast_value(
                            regs[inst[2]], inst[3], frame)
                    elif op == OP_CAST_ERR:
                        raise StuckError("cast was not typechecked")
                    elif op == OP_NEW:
                        info, atoms, span = inst[2]
                        argv = [regs[r] for r in inst[3]]
                        regs[inst[1]] = interp._construct(
                            info, atoms, argv, frame, span)
                    elif op == OP_NEW_LIST:
                        regs[inst[1]] = []
                    elif op == OP_LIST_BUILD:
                        regs[inst[1]] = [regs[r] for r in inst[2]]
                    elif op == OP_INSTANCEOF:
                        v = regs[inst[2]]
                        regs[inst[1]] = (
                            isinstance(v, ObjectV)
                            and interp.table.is_subclass(
                                v.class_info.name, inst[3]))
                    elif op == OP_NEG:
                        v = regs[inst[2]]
                        t = type(v)
                        if t is int or t is float:
                            regs[inst[1]] = -v
                        else:
                            raise StuckError(f"cannot negate {v!r}")
                    elif op == OP_NOT:
                        regs[inst[1]] = not interp._truth(regs[inst[2]])
                    elif op == OP_LOAD_THIS:
                        regs[inst[1]] = this_obj
                    elif op == OP_LOAD_NATIVE:
                        regs[inst[1]] = NativeRef(inst[2])
                    elif op == OP_CALL_NATIVE:
                        cls_name, method = inst[2]
                        argv = [regs[r] for r in inst[3]]
                        regs[inst[1]] = call_native_static(
                            interp, cls_name, method, argv)
                    elif op == OP_FOREACH_INIT:
                        v = regs[inst[2]]
                        if not isinstance(v, list):
                            raise StuckError("foreach requires a List")
                        regs[inst[1]] = [list(v), 0]
                    elif op == OP_FOREACH_ITER:
                        state = regs[inst[2]]
                        items = state[0]
                        idx = state[1]
                        if idx >= len(items):
                            pc = inst[1]
                        else:
                            state[1] = idx + 1
                            regs[inst[3]] = items[idx]
                            stats.steps += 1
                            if fuel is not None and stats.steps > fuel:
                                raise FuelExhausted(
                                    f"evaluation exceeded {fuel} steps "
                                    f"(divergence bound)")
                            if self._jit_on and not handlers:
                                # OSR at the foreach charge point: the
                                # element is assigned and this
                                # iteration charged, matching the JIT's
                                # post-ITER entry.
                                jfn = code.jit
                                if jfn is not None:
                                    return jfn(self, regs, frame, pc)
                                loop = self._hot_loop_region(
                                    code, pc - 1, current_mode)
                                if loop is not None:
                                    value = loop.jit(self, regs, frame,
                                                     pc)
                                    if value is not LOOP_EXIT:
                                        return value
                                    pc = loop.end + 1
                    elif op == OP_PUSH_HANDLER:
                        if handlers is None:
                            handlers = []
                        handlers.append((inst[1], inst[2]))
                    elif op == OP_POP_HANDLER:
                        handlers.pop()
                    elif op == OP_THROW:
                        message = interp.render(regs[inst[1]])
                        stats.energy_exceptions += 1
                        if interp.tracer.enabled:
                            interp.tracer.energy_exception(
                                message, source="interp")
                        raise EnergyException(message)
                    elif op == OP_RETURN_NONE:
                        return None
                    elif op == OP_FALLOFF:
                        return _NO_RETURN
                    elif op == OP_PROFILE:
                        # Only present in instrument()ed bodies; sits
                        # at the chain's end so uninstrumented code
                        # never compares against it.
                        interp.profiler.bump(inst[1], current_mode)
                    else:  # pragma: no cover - lowering emits known ops
                        raise EntRuntimeError(f"bad opcode {op!r}")
            except EnergyException as exc:
                if not handlers:
                    raise
                pc, exc_slot = handlers.pop()
                regs[exc_slot] = str(exc)


class JITVM(VM):
    """The VM with the trace-JIT tier armed (``engine="jit"``).

    All tiering state lives here: thresholds (instance attributes so
    tests can force-compile with ``_hot_call = 1``), the compile /
    deopt / invalidation counters, the per-loop tiering records, and
    the compile entry point the dispatch loop's hooks call.  The tier
    stays armed under a tracer or profiler.  There the leaf fast path
    and the inline check probes are off (``_fast_ok``,
    ``_dfall_plain``), so compiled code sends through ``_invoke`` and
    checks through the check kernel exactly as the VM does, and an
    ``instrument()``ed body compiles its ``PROFILE`` instructions to
    inline bumps: events, call-site and check counts and profile
    labels equal the VM's, plus ``engine.jit_compile`` for compile
    time.

    See :mod:`repro.lang.jit` for the emitter and the tiering policy.
    """

    def __init__(self, interp) -> None:
        super().__init__(interp)
        from repro.lang import jit
        self._jit_mod = jit
        self._jit_on = True
        self._hot_call = jit.HOT_CALL_THRESHOLD
        self._hot_loop = jit.HOT_LOOP_THRESHOLD
        self._deopt_limit = jit.DEOPT_LIMIT
        self._max_versions = jit.MAX_VERSIONS
        #: Engine-level observability (kept OFF RunStats: stats
        #: dicts are compared across engines by the differential suite,
        #: and tiering is engine-private by design).
        self.jit_compiles = 0
        self.jit_deopts = 0
        self.jit_invalidations = 0
        self.jit_bailouts = 0
        #: The subset of ``jit_compiles`` that compiled a loop region.
        self.jit_loop_compiles = 0
        #: Compile log: (body or region name, version) in compile order.
        self.jit_compiled = []
        #: Per-loop tiering records: VMCode -> {charge point:
        #: LoopRegion}.
        self._loops = {}

    def _jit_compile(self, code, mode=None):
        """Compile ``code`` — a body or a :class:`LoopRegion` — or
        blacklist it; returns the installed entry point or ``None``.
        ``mode`` is the running code's, for the profiler."""
        if code.jit is not None:
            return code.jit
        if code.jit_versions >= self._max_versions:
            code.heat = _COLD
            return None
        profiler = self.interp.profiler
        if profiler.enabled:
            # Compile time gets its own label; the next bump closes it.
            profiler.bump("engine.jit_compile", mode)
        try:
            fn, src = self._jit_mod.compile_body(self, code)
        except self._jit_mod.JITUnsupported:
            self.jit_bailouts += 1
            code.jit_versions = self._max_versions
            code.heat = _COLD
            return None
        code.jit = fn
        code.jit_src = src
        code.jit_deopts = 0
        code.jit_versions += 1
        self.jit_compiles += 1
        self.jit_compiled.append((code.name or "<body>",
                                  code.jit_versions))
        return fn

    def _hot_loop_region(self, code, charge, mode):
        """Count one back edge of the loop whose charge point
        (``FUEL``/``FOREACH_ITER``) is ``charge`` in ``code``; returns
        the loop's record once it has a compiled region (which may
        compile now, at ``mode``), else ``None``."""
        loops = self._loops.get(code)
        if loops is None:
            instrs = code.instrs
            # A loop's head is its back edge's target: the charge
            # point, or in an instrument()ed body the PROFILE before it.
            loops = self._loops[code] = {
                (start + 1 if instrs[start][0] == OP_PROFILE else start):
                    LoopRegion(code, start, end)
                for start, end in loop_back_edges(instrs).items()}
        loop = loops[charge]
        if loop.jit is None:
            loop.heat = h = loop.heat + 1
            if (h < self._hot_loop
                    or self._jit_compile(loop, mode) is None):
                return None
            self.jit_loop_compiles += 1
        return loop

    def loop_regions(self, code):
        """``code``'s loops that hold a compiled region, by head."""
        loops = self._loops.get(code, {})
        return [loop for _, loop in sorted(loops.items())
                if loop.jit_src is not None]

    def tier_counters(self) -> dict:
        """The tiering counters, as ``repro run --stats`` reports them."""
        return {"compiles": self.jit_compiles,
                "loop_compiles": self.jit_loop_compiles,
                "deopts": self.jit_deopts,
                "invalidations": self.jit_invalidations,
                "bailouts": self.jit_bailouts}

    def _note_deopt(self, code) -> None:
        """A specialization guard failed in ``code``'s compiled body
        (or loop region).  Execution already fell back to
        ``_site_send`` (results stay engine-identical); here we only
        count, and past the deopt limit invalidate the unit so the next
        hot crossing recompiles against the by-then-grown inline caches
        (bounded by ``MAX_VERSIONS``).
        """
        self.jit_deopts += 1
        code.jit_deopts += 1
        if (code.jit_deopts >= self._deopt_limit
                and code.jit is not None):
            code.jit = None
            code.jit_src = None
            code.heat = 0
            self.jit_invalidations += 1


def _body_names(table):
    """Map id(body block) -> ``Class.<init>``, ``Class.<attributor>``,
    ``Class.method`` or ``Class.method.<attributor>``, for every body
    the program declares."""
    names = {}
    for info in table.classes():
        decl = info.decl
        if decl is None:
            continue
        parts = [(decl.constructor, "<init>"),
                 (decl.attributor, "<attributor>")]
        for method in decl.methods:
            parts += [(method, method.name),
                      (method.attributor, f"{method.name}.<attributor>")]
        for part, suffix in parts:
            if part is not None:
                names[id(part.body)] = f"{decl.name}.{suffix}"
    return names


def _mcase_read(interp, value, owner, mcase, current_mode, regs):
    """A read's mode-case operand applied to the mode case ``value`` of
    an object whose effective mode is ``owner`` (the current mode when
    it has none): keep ``value`` raw, eliminate it at that mode, or
    store the mode in the operand's register for the send that
    eliminates ``value``."""
    if mcase is MC_RAW:
        return value
    if owner is None:
        owner = current_mode
    if mcase == MC_ELIM:
        return eliminate(interp, "interp", value, owner)
    regs[mcase] = owner
    return value


# Late imports resolved once at module load: the interp module imports
# this one lazily (inside ``Interpreter.__init__``), so the circular
# reference is safe by the time a VM is constructed.
def _bind_interp_names():
    from repro.lang import interp as _interp_mod

    globals().update({
        "_Frame": _interp_mod._Frame,
        "_NO_RETURN": _interp_mod._NO_RETURN,
        "_java_div": _interp_mod._java_div,
        "_java_mod": _interp_mod._java_mod,
    })


_bind_interp_names()
