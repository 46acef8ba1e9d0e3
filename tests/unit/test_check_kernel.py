"""One run-time kernel: the ENT interpreter and the embedded runtime
check, snapshot and eliminate the same way.

The same failing dfall (a managed pipeline messages an agent whose
method is attributed full_throttle) and the same failing bound check
(an attributor returns full_throttle against ``[energy_saver,
managed]``) run through the ENT language on every engine and through
:class:`EntRuntime`.  Both must raise the same message, count the same
checks and emit the same check events, apart from the events'
``source``: both runtimes call :mod:`repro.core.checks`.

The snapshot and mode-case scenarios below extend that to the whole
kernel: a first snapshot, a re-snapshot, an eager copy, the overhead
baseline and a failing bound under ``silent``; elimination by branch,
by default, against a dynamic mode and with a missing branch.  Each
must end alike (same exception class and message, or none), count
alike and trace alike.
"""

import pytest

from repro.core.errors import EnergyException, EntRuntimeError
from repro.core.modes import TOP, Mode
from repro.lang.interp import Interpreter, InterpOptions
from repro.lang.typechecker import check_program
from repro.obs.tracer import Tracer
from repro.runtime.embedded import EntRuntime

MODES = "modes { energy_saver <= managed; managed <= full_throttle; }\n"

DFALL_ENT = MODES + """
class Agent@mode<?X> {
    attributor { return managed; }
    Agent() { }
    @mode<?Y> int saveImages()
    attributor { return full_throttle; }
    { return 1; }
}
class Pipeline@mode<managed> {
    int save(Agent@mode<managed> a) { return a.saveImages(); }
}
class Main {
    void main() {
        Agent da = new Agent@mode<?>();
        Agent@mode<managed> a = snapshot da [managed, managed];
        Pipeline p = new Pipeline();
        p.save(a);
    }
}
"""

BOUND_ENT = MODES + """
class Agent@mode<?X> {
    attributor { return full_throttle; }
    Agent() { }
}
class Main {
    void main() {
        Agent da = new Agent@mode<?>();
        Agent a = snapshot da [energy_saver, managed];
    }
}
"""


def _dfall_embedded(rt):
    @rt.dynamic
    class Agent:
        def attributor(self):
            return "managed"

        @rt.mode_override("full_throttle")
        def saveImages(self):
            return 1

    @rt.static("managed")
    class Pipeline:
        def save(self, a):
            return a.saveImages()

    agent = rt.snapshot(Agent(), "managed", "managed")
    Pipeline().save(agent)


def _bound_embedded(rt):
    @rt.dynamic
    class Agent:
        def attributor(self):
            return "full_throttle"

    rt.snapshot(Agent(), "energy_saver", "managed")


SCENARIOS = {
    "dfall": (DFALL_ENT, _dfall_embedded,
              "waterfall invariant violated: receiver mode full_throttle "
              "> sender mode managed (method Agent.saveImages)"),
    "bound": (BOUND_ENT, _bound_embedded,
              "bad check: attributor of Agent returned full_throttle, "
              "outside [energy_saver, managed]"),
}

COUNTERS = ("snapshots", "bound_checks", "dfall_checks",
            "energy_exceptions")

CHECK_EVENTS = ("snapshot", "dfall_check", "energy_exception")


def _observe(runtime, run, tracer):
    """``(message, counters, check events without ts/source)`` of a
    ``run`` that must fail a check."""
    with pytest.raises(EnergyException) as info:
        run()
    counters = {name: getattr(runtime.stats, name) for name in COUNTERS}
    events = []
    for event in (tracer.events() if tracer is not None else []):
        if event.kind in CHECK_EVENTS:
            fields = event.as_dict()
            del fields["ts"], fields["source"]
            events.append(fields)
    return str(info.value), counters, events


#: Booting ENT's ``Main.main`` is one more passing dfall check, which
#: the embedded programs have no counterpart for.
BOOT = {"kind": "dfall_check", "cls": "Main", "method": "main",
        "receiver_mode": "$top", "sender_mode": "$top", "holds": True,
        "elided": False}


def _ent(source, engine, tracer):
    interp = Interpreter(check_program(source),
                         options=InterpOptions(engine=engine),
                         tracer=tracer)
    message, counters, events = _observe(interp, interp.run, tracer)
    counters["dfall_checks"] -= 1
    if tracer is not None:
        assert events.pop(0) == BOOT
    return message, counters, events


def _embedded(scenario, tracer):
    rt = EntRuntime.standard(tracer=tracer)
    return _observe(rt, lambda: scenario(rt), tracer)


@pytest.mark.parametrize("traced", [False, True], ids=["plain", "traced"])
@pytest.mark.parametrize("engine", ["walk", "vm", "jit"])
@pytest.mark.parametrize("kind", sorted(SCENARIOS))
def test_language_and_embedded_fail_alike(kind, engine, traced):
    source, scenario, message = SCENARIOS[kind]
    ent = _ent(source, engine, Tracer() if traced else None)
    embedded = _embedded(scenario, Tracer() if traced else None)
    assert ent[0] == embedded[0] == message
    assert ent[1] == embedded[1]
    assert ent[2] == embedded[2]
    assert bool(ent[2]) == traced


# ----------------------------------------------------------------------
# Snapshot and elimination

AGENT_ENT = MODES + """
class Agent@mode<?X> {
    mcase<int> level = mcase{ energy_saver: 1; managed: 2; full_throttle: 3; };
    attributor { return %s; }
    Agent() { }
}
"""


def _agent(rt, mode="managed"):
    @rt.dynamic
    class Agent:
        level = rt.mcase({"energy_saver": 1, "managed": 2,
                          "full_throttle": 3})

        def attributor(self):
            return mode

    return Agent


def _main(body, attributor="managed"):
    return (AGENT_ENT % attributor
            + "class Main {\n    void main() {\n" + body + "\n    }\n}\n")


def _snapshot_once(rt):
    return rt.snapshot(_agent(rt)(), "energy_saver", "full_throttle")


def _snapshot_twice(rt):
    agent = _agent(rt)()
    rt.snapshot(agent, "energy_saver", "full_throttle")
    rt.snapshot(agent, "energy_saver", "full_throttle")


def _dynamic_elim_in_constructor(rt):
    @rt.dynamic
    class Agent:
        level = rt.mcase({"energy_saver": 1, "managed": 2,
                          "full_throttle": 3})

        def __init__(self):
            self.level  # eliminated at the agent's mode, still ``?``

        def attributor(self):
            return "managed"

    rt.snapshot(Agent())


ONE_SNAPSHOT = ("Agent da = new Agent@mode<?>();\n"
                "Agent a = snapshot da [energy_saver, full_throttle];")

#: name -> (ENT source, embedded scenario, options for both runtimes,
#: expected ``(exception class, message)`` or None).
KERNEL_SCENARIOS = {
    "first snapshot (lazy tag)": (
        _main(ONE_SNAPSHOT),
        _snapshot_once,
        {}, None),
    "re-snapshot (copy)": (
        _main("Agent da = new Agent@mode<?>();\n"
              "Agent a = snapshot da [energy_saver, full_throttle];\n"
              "Agent b = snapshot da [energy_saver, full_throttle];"),
        _snapshot_twice, {}, None),
    "eager copy": (
        _main(ONE_SNAPSHOT),
        _snapshot_once,
        {"lazy_copy": False}, None),
    "baseline": (
        _main(ONE_SNAPSHOT),
        _snapshot_once,
        {"baseline": True}, None),
    "failing bound under silent": (
        _main("Agent da = new Agent@mode<?>();\n"
              "Agent a = snapshot da [energy_saver, managed];",
              attributor="full_throttle"),
        lambda rt: rt.snapshot(_agent(rt, "full_throttle")(),
                               "energy_saver", "managed"),
        {"silent": True}, None),
    "elimination by branch": (
        _main("Agent da = new Agent@mode<?>();\n"
              "Agent a = snapshot da [energy_saver, full_throttle];\n"
              "int v = a.level;"),
        lambda rt: _snapshot_once(rt).level,
        {}, None),
    "elimination by default": (
        _main("mcase<int> m = mcase{ managed: 2; default: 0; };\n"
              "int v = mselect(m, full_throttle);"),
        lambda rt: rt.mcase({"managed": 2}, default=0).select(
            Mode("full_throttle")),
        {}, None),
    "elimination against a dynamic mode": (
        MODES + """
class Agent@mode<?X> {
    mcase<int> level = mcase{ energy_saver: 1; managed: 2; full_throttle: 3; };
    attributor { return managed; }
    Agent() { int v = mselect(level, X); }
}
class Main {
    void main() {
        Agent da = new Agent@mode<?>();
        Agent a = snapshot da;
    }
}
""",
        _dynamic_elim_in_constructor, {},
        (EntRuntimeError,
         "cannot eliminate a mode case against a dynamic mode; "
         "snapshot the enclosing object first")),
    "elimination with a missing branch": (
        _main("mcase<int> m = mcase{ energy_saver: 1; managed: 2; "
              "full_throttle: 3; };\nSys.print(m);"),
        lambda rt: rt.mcase({"energy_saver": 1, "managed": 2,
                             "full_throttle": 3}).select(TOP),
        {},
        (EntRuntimeError,
         "mode case has no branch for mode $top (branches: energy_saver, "
         "full_throttle, managed)")),
}

KERNEL_COUNTERS = ("snapshots", "copies", "lazy_tags", "bound_checks",
                   "shallow_checks", "energy_exceptions", "mcase_elims")


def _kernel_events(tracer):
    """The kernel's events without ``ts``/``source``: attributor,
    snapshot, mode-case, EnergyException and object-mode events."""
    out = []
    for event in tracer.events():
        fields = event.as_dict()
        if event.kind == "mode_transition":
            if not fields["scope"].startswith("object:"):
                continue
        elif event.kind not in ("attributor", "snapshot", "mcase_elim",
                                "energy_exception"):
            continue
        del fields["ts"]
        fields.pop("source", None)
        out.append(fields)
    return out


def _outcome(runtime, run, tracer):
    try:
        run()
        failure = None
    except Exception as exc:  # noqa: BLE001 - the class is compared
        failure = (type(exc), str(exc))
    counters = {name: getattr(runtime.stats, name)
                for name in KERNEL_COUNTERS}
    return failure, counters, _kernel_events(tracer)


@pytest.mark.parametrize("engine", ["walk", "vm", "jit"])
@pytest.mark.parametrize("name", list(KERNEL_SCENARIOS))
def test_snapshot_and_elimination_alike(name, engine):
    source, scenario, options, expected = KERNEL_SCENARIOS[name]
    tracer = Tracer()
    interp = Interpreter(check_program(source),
                         options=InterpOptions(engine=engine, **options),
                         tracer=tracer)
    ent = _outcome(interp, interp.run, tracer)
    tracer = Tracer()
    rt = EntRuntime.standard(tracer=tracer, **options)
    embedded = _outcome(rt, lambda: scenario(rt), tracer)
    assert ent[0] == embedded[0] == expected
    assert ent[1] == embedded[1]
    assert ent[2] == embedded[2]
    assert ent[2], "every scenario traces a kernel event"


def test_embedded_elimination_failure_is_not_an_energy_exception():
    """``except EnergyException`` is how a program catches a refusal
    (a bad check or a dfall failure); a failed elimination is a
    run-time error and must propagate through it."""
    rt = EntRuntime.standard()
    Agent = _agent(rt)
    with pytest.raises(EntRuntimeError) as info:
        try:
            Agent().level
        except EnergyException:
            pytest.fail("a failed elimination was caught as a refusal")
    assert not isinstance(info.value, EnergyException)
