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

Everything non-hot delegates to the interpreter's shared helpers
(``_snapshot_value``, ``_mselect_value``, ``_construct``, ``_invoke``,
``_binary_op``, …), so semantics, stats and error messages stay
identical across engines.  The fast path is disabled while a tracer is
attached (``_fast_ok``): traced runs take the general ``_invoke`` path,
which emits the mode-transition and check events.

Fuel model: one step at activation entry plus one per loop iteration
(the ``FUEL`` instruction at every ``while`` head, and ``FOREACH_ITER``
per element).  Step *counts* differ across engines by design — the
divergence bound is what must hold, and every backedge passes a charge
point — so the differential suite compares stats minus ``steps``.
"""

from __future__ import annotations

from repro.core.errors import (EnergyException, EntRuntimeError,
                               FuelExhausted, StuckError)
from repro.core.modes import TOP, Mode
from repro.lang.bytecode import (  # noqa: F401 (re-exported for tests)
    OP_ADD, OP_BREAK_NOLOOP, OP_CALL_DFALL, OP_CALL_NATIVE,
    OP_CALL_NODFALL, OP_CALL_SHALLOW, OP_CAST, OP_CAST_ERR,
    OP_CONT_NOLOOP, OP_DIV,
    OP_EQ, OP_FALLOFF, OP_FIELD_ADD, OP_FOREACH_INIT, OP_FOREACH_ITER,
    OP_FUEL, OP_GE, OP_GETF, OP_GETF_ARG, OP_GETF_RAW, OP_GETF_THIS,
    OP_GETF_THIS_ARG, OP_GETF_THIS_RAW, OP_GT, OP_INC, OP_INSTANCEOF,
    OP_JF, OP_JF_EQ, OP_JF_GE, OP_JF_GT, OP_JF_LE, OP_JF_LT, OP_JF_NE,
    OP_JT, OP_JUMP, OP_LE, OP_LIST_BUILD, OP_LOAD_NATIVE, OP_LOAD_THIS,
    OP_LT, OP_MCASE_BUILD, OP_MCASE_DISPATCH, OP_MOD, OP_MOVE,
    OP_MSELECT, OP_MUL, OP_NE, OP_NEG, OP_NEW, OP_NEW_LIST, OP_NOT,
    OP_POP_HANDLER, OP_PROFILE, OP_PUSH_HANDLER, OP_RETURN,
    OP_RETURN_NONE, OP_RET_FIELD, OP_SETF, OP_SETF_THIS, OP_SNAPSHOT,
    OP_SNAPSHOT_ELIDE, OP_SNAPSHOT_SHALLOW, OP_SUB, OP_THROW,
    OP_VAR_DYN, OP_VAR_DYN_ARG,
    OP_VAR_DYN_RAW, VMCode, instrument, lower_body, lower_expr)
from repro.lang.natives import (NATIVE_STATIC_CLASSES, call_list_method,
                                call_native_static, call_string_method)
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
    #: :class:`JITVM` subclass ever sets it (and only when the leaf
    #: fast path is on), so the plain VM pays one false branch.
    _jit_on = False

    def __init__(self, interp) -> None:
        self.interp = interp
        #: id(body block) -> VMCode (bodies lower lazily, on first
        #: call).
        self._codes = {}
        #: (id(expr), want_mcase) -> VMCode for field initializers.
        self._expr_codes = {}
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
        #: Gate for the inlined dfall-cache hit (below): only when the
        #: full :meth:`Interpreter._check_dfall` would count the check,
        #: probe the memo and raise nothing on a positive verdict.
        opts = interp.options
        self._dfall_plain = (not opts.baseline and opts.check_dfall
                             and not interp.tracer.enabled
                             and not interp.profiler.enabled)
        #: Transient fast-path gate (``--checks transient``): the
        #: shallow opcodes inline the upward-closure probe only when
        #: nothing needs the deep helper's observability (tracer
        #: events, profiler counters); hooks are re-probed at dispatch.
        self._shallow_plain = (interp._transient
                               and not interp.tracer.enabled
                               and not interp.profiler.enabled)

    # ------------------------------------------------------------------
    # Entry points (wired as ``Interpreter._call_body`` /
    # ``_execute_expr``)

    def _lower(self, block, param_names, wants, name) -> VMCode:
        code = self._codes.get(id(block))
        if code is None:
            code = lower_body(self.interp, block, param_names,
                              wants=wants, name=name)
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
        code = self._lower(block, param_names, wants, None)
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
                    jfn = self._jit_compile(code)
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
        interp = self.interp
        return self._lower(minfo.decl.body, minfo.param_names,
                           interp._wants_for(minfo),
                           f"{minfo.owner}.{minfo.name}")

    # ------------------------------------------------------------------
    # Inline caches

    def _ic_miss(self, site, receiver):
        """Resolve a send on a cache miss; returns (and usually caches)
        ``(minfo, wants, leaf code or None, transparent)``."""
        interp = self.interp
        minfo = interp._find_method(receiver.class_info, site.name)
        if minfo is None:
            raise StuckError(
                f"no method {site.name!r} on class "
                f"{receiver.class_info.name}")
        wants = interp._wants_for(minfo)
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
        current_mode = frame.current_mode
        if receiver.__class__ is ObjectV:
            entry = (site.ic.get(receiver.class_info.name)
                     or self._ic_miss(site, receiver))
            minfo, wants, _callee, _transparent = entry
            nparams = len(minfo.param_names)
            if site.any_elim:
                for i, v in enumerate(argv):
                    if (v.__class__ is MCaseV
                            and (i >= nparams or not wants[i])):
                        mode = elim_modes[i]
                        if mode is _SKIP_ELIM:
                            continue
                        argv[i] = interp._elim_with_mode(v, mode)
            if len(argv) != nparams:
                raise StuckError(
                    f"method {minfo.owner}.{minfo.name} expects "
                    f"{nparams} argument(s), got {len(argv)}")
            value = interp._invoke(receiver, minfo, argv, frame,
                                   self_call=self_call, span=site.span,
                                   elide_dfall=site.elide_dfall)
            if value.__class__ is MCaseV and not site.raw_result:
                value = interp._elim_with_mode(value, current_mode)
            return value
        if site.any_elim:
            for i, v in enumerate(argv):
                if v.__class__ is MCaseV:
                    mode = elim_modes[i]
                    if mode is _SKIP_ELIM:
                        continue
                    argv[i] = interp._elim_with_mode(v, mode)
        name = site.name
        if isinstance(receiver, _NativeRef):
            return call_native_static(interp, receiver.name, name, argv)
        if isinstance(receiver, str):
            return call_string_method(interp, receiver, name, argv)
        if isinstance(receiver, list):
            return call_list_method(interp, receiver, name, argv)
        if receiver is None:
            raise StuckError(f"null receiver for method {name!r}")
        raise StuckError(f"cannot invoke {name!r} on {receiver!r}")

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
                            # On-stack replacement: a hot loop head
                            # transfers this activation's live register
                            # file into the compiled body (``pc`` is
                            # already past the charge, which is exactly
                            # where the JIT's OSR entry resumes).
                            jfn = code.jit
                            if jfn is None:
                                code.heat = h = code.heat + 1
                                if h >= self._hot_loop:
                                    jfn = self._jit_compile(code)
                            if jfn is not None:
                                return jfn(self, regs, frame, pc)
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
                    elif op == OP_CALL_DFALL or op == OP_CALL_NODFALL \
                            or op == OP_CALL_SHALLOW:
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
                                        argv[i] = interp._elim_with_mode(
                                            v, regs[e] if e >= 0
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
                                        if (op == OP_CALL_NODFALL
                                                and interp._elide_dfall_on):
                                            stats.dfall_elided += 1
                                        # Transient shallow probe: one
                                        # set-membership test against
                                        # the upward closure; failures
                                        # re-enter the full helper for
                                        # the blame-carrying raise.
                                        elif (op == OP_CALL_SHALLOW
                                              and self._dfall_plain
                                              and interp.on_message is None
                                              and guard is not None
                                              and (current_mode
                                                   if current_mode
                                                   is not None else TOP)
                                              in interp._mode_up[guard]):
                                            stats.dfall_checks += 1
                                            stats.shallow_checks += 1
                                        # Inlined memo hit: the full
                                        # check would only bump the
                                        # counter and pass.
                                        elif (self._dfall_plain
                                              and interp.on_message is None
                                              and interp._dfall_cache.get(
                                                  (guard, current_mode))
                                              is True):
                                            stats.dfall_checks += 1
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
                                frame2 = _Frame(receiver,
                                                receiver.mode_env,
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
                                value = interp._elim_with_mode(
                                    value, current_mode)
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
                                        argv[i] = interp._elim_with_mode(
                                            v, regs[e] if e >= 0
                                            else current_mode)
                            name = site.name
                            if isinstance(receiver, _NativeRef):
                                value = call_native_static(
                                    interp, receiver.name, name, argv)
                            elif isinstance(receiver, str):
                                value = call_string_method(
                                    interp, receiver, name, argv)
                            elif isinstance(receiver, list):
                                value = call_list_method(
                                    interp, receiver, name, argv)
                            elif receiver is None:
                                raise StuckError(
                                    f"null receiver for method {name!r}")
                            else:
                                raise StuckError(
                                    f"cannot invoke {name!r} on "
                                    f"{receiver!r}")
                            regs[inst[1]] = value
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
                            v = interp._elim_with_mode(
                                v, owner if owner is not None
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
                            return interp._elim_with_mode(
                                v, owner if owner is not None
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
                            owner = this_obj.effective_mode
                            v = interp._elim_with_mode(
                                v, owner if owner is not None
                                else current_mode)
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
                    elif op == OP_GETF or op == OP_GETF_RAW:
                        obj = regs[inst[3]]
                        if not isinstance(obj, ObjectV):
                            raise StuckError(
                                f"cannot access field {inst[2]!r} of "
                                f"{obj!r}")
                        v = obj.get_field(inst[2])
                        if v.__class__ is MCaseV and op == OP_GETF:
                            owner = obj.effective_mode
                            v = interp._elim_with_mode(
                                v, owner if owner is not None
                                else current_mode)
                        regs[inst[1]] = v
                    elif op == OP_GETF_THIS_RAW:
                        try:
                            regs[inst[1]] = this_obj.fields[inst[2]]
                        except (AttributeError, KeyError):
                            raise StuckError(
                                f"unknown variable {inst[2]!r}") from None
                    elif op == OP_GETF_THIS_ARG:
                        try:
                            v = this_obj.fields[inst[2]]
                        except (AttributeError, KeyError):
                            raise StuckError(
                                f"unknown variable {inst[2]!r}") from None
                        if v.__class__ is MCaseV:
                            owner = this_obj.effective_mode
                            regs[inst[3]] = (owner if owner is not None
                                             else current_mode)
                        regs[inst[1]] = v
                    elif op == OP_GETF_ARG:
                        obj = regs[inst[3]]
                        if not isinstance(obj, ObjectV):
                            raise StuckError(
                                f"cannot access field {inst[2]!r} of "
                                f"{obj!r}")
                        v = obj.get_field(inst[2])
                        if v.__class__ is MCaseV:
                            owner = obj.effective_mode
                            regs[inst[4]] = (owner if owner is not None
                                             else current_mode)
                        regs[inst[1]] = v
                    elif (op == OP_VAR_DYN or op == OP_VAR_DYN_RAW
                            or op == OP_VAR_DYN_ARG):
                        name = inst[2]
                        found, v = frame.lookup(name)
                        if not found:
                            if (this_obj is not None
                                    and name in this_obj.fields):
                                v = this_obj.fields[name]
                                if v.__class__ is MCaseV:
                                    owner = this_obj.effective_mode
                                    if op == OP_VAR_DYN:
                                        v = interp._elim_with_mode(
                                            v, owner if owner is not None
                                            else current_mode)
                                    elif op == OP_VAR_DYN_ARG:
                                        regs[inst[3]] = (
                                            owner if owner is not None
                                            else current_mode)
                            else:
                                v = interp._mode_by_name.get(name)
                                if v is None:
                                    if name in NATIVE_STATIC_CLASSES:
                                        v = _NativeRef(name)
                                    else:
                                        raise StuckError(
                                            f"unknown variable {name!r}")
                        elif (v.__class__ is MCaseV
                                and op == OP_VAR_DYN):
                            v = interp._elim_with_mode(v, current_mode)
                        regs[inst[1]] = v
                    elif op == OP_MCASE_DISPATCH:
                        v = regs[inst[2]]
                        if v.__class__ is MCaseV:
                            v = interp._elim_with_mode(v, current_mode)
                        regs[inst[1]] = v
                    elif op == OP_MCASE_BUILD:
                        branches = {}
                        default = _MCASE_MISSING
                        for mode, reg in inst[2]:
                            if mode is None:
                                default = regs[reg]
                            else:
                                branches[mode] = regs[reg]
                        regs[inst[1]] = (MCaseV(branches)
                                         if default is _MCASE_MISSING
                                         else MCaseV(branches, default))
                    elif op == OP_MSELECT:
                        regs[inst[1]] = interp._mselect_value(
                            regs[inst[2]], inst[3], frame)
                    elif op == OP_SNAPSHOT:
                        regs[inst[1]] = interp._snapshot_value(
                            regs[inst[2]], inst[3], frame,
                            elide_bound=False, span=inst[4])
                    elif op == OP_SNAPSHOT_ELIDE:
                        regs[inst[1]] = interp._snapshot_value(
                            regs[inst[2]], inst[3], frame,
                            elide_bound=True, span=inst[4])
                    elif op == OP_SNAPSHOT_SHALLOW:
                        # Transient re-snapshot: when the tag is
                        # already fixed and the bounds are concrete,
                        # the whole check is two set probes; anything
                        # else (first snapshot, hooks, symbolic
                        # bounds, failures) re-enters the shared
                        # helper, which owns the blame raise.
                        src = regs[inst[2]]
                        if (self._shallow_plain
                                and src.__class__ is ObjectV
                                and src.is_snapshot
                                and interp.on_snapshot is None):
                            bounds = inst[3]
                            lower = bounds[0]
                            upper = bounds[1]
                            if (lower.__class__ is Mode
                                    and upper.__class__ is Mode):
                                up = interp._mode_up
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
                            elide_bound=False, span=inst[4])
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
                        regs[inst[1]] = _NativeRef(inst[2])
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
                                if jfn is None:
                                    code.heat = h = code.heat + 1
                                    if h >= self._hot_loop:
                                        jfn = self._jit_compile(code)
                                if jfn is not None:
                                    return jfn(self, regs, frame, pc)
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
                    elif op == OP_BREAK_NOLOOP:
                        raise _BreakSignal()
                    elif op == OP_CONT_NOLOOP:
                        raise _ContinueSignal()
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
    deopt / invalidation counters, and the compile entry point the
    dispatch loop's hooks call.  The JIT arms itself exactly when the
    leaf-call fast path is on (``_fast_ok``): traced and profiled runs
    need every send on the ``_invoke`` path for events and call-site
    profiles, so under them ``jit`` degrades to the plain VM — which is
    also why ``repro profile --engine jit`` satisfies the
    static-vs-observed oracle by construction.

    See :mod:`repro.lang.jit` for the emitter and the tiering policy.
    """

    def __init__(self, interp) -> None:
        super().__init__(interp)
        from repro.lang import jit
        self._jit_mod = jit
        self._jit_on = self._fast_ok
        self._hot_call = jit.HOT_CALL_THRESHOLD
        self._hot_loop = jit.HOT_LOOP_THRESHOLD
        self._deopt_limit = jit.DEOPT_LIMIT
        self._max_versions = jit.MAX_VERSIONS
        #: Engine-level observability (kept OFF InterpStats: stats
        #: dicts are compared across engines by the differential suite,
        #: and tiering is engine-private by design).
        self.jit_compiles = 0
        self.jit_deopts = 0
        self.jit_invalidations = 0
        self.jit_bailouts = 0
        #: Compile log: (body name, version) in compile order.
        self.jit_compiled = []

    def _jit_compile(self, code):
        """Compile ``code`` (or blacklist it); returns the installed
        entry point or ``None``."""
        if code.jit is not None:
            return code.jit
        if code.jit_versions >= self._max_versions:
            code.heat = _COLD
            return None
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

    def _note_deopt(self, code) -> None:
        """A specialization guard failed in ``code``'s compiled body.
        Execution already fell back to ``_site_send`` (results stay
        engine-identical); here we only count, and past the deopt limit
        invalidate the body so the next hot crossing recompiles against
        the by-then-grown inline caches (bounded by ``MAX_VERSIONS``).
        """
        self.jit_deopts += 1
        code.jit_deopts += 1
        if (code.jit_deopts >= self._deopt_limit
                and code.jit is not None):
            code.jit = None
            code.jit_src = None
            code.heat = 0
            self.jit_invalidations += 1


# Late imports resolved once at module load: the interp module imports
# this one lazily (inside ``Interpreter.__init__``), so the circular
# reference is safe by the time a VM is constructed.
def _bind_interp_names():
    from repro.lang import interp as _interp_mod

    globals().update({
        "_Frame": _interp_mod._Frame,
        "_NativeRef": _interp_mod._NativeRef,
        "_BreakSignal": _interp_mod._BreakSignal,
        "_ContinueSignal": _interp_mod._ContinueSignal,
        "_NO_RETURN": _interp_mod._NO_RETURN,
        "_java_div": _interp_mod._java_div,
        "_java_mod": _interp_mod._java_mod,
    })


_bind_interp_names()
_MCASE_MISSING = MCaseV._MISSING
