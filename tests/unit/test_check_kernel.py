"""One check kernel: the ENT interpreter and the embedded runtime fail a
check the same way.

The same failing dfall (a managed pipeline messages an agent whose
method is attributed full_throttle) and the same failing bound check
(an attributor returns full_throttle against ``[energy_saver,
managed]``) run through the ENT language on every engine and through
:class:`EntRuntime`.  Both must raise the same message, count the same
checks and emit the same check events, apart from the events'
``source``: both runtimes call :mod:`repro.core.checks`.
"""

import pytest

from repro.core.errors import EnergyException
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
