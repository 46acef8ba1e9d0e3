"""End-to-end guarantees of transient checking (``--checks transient``):

* **Transparency** — on accepted programs every engine produces output
  bit-identical to full checking; when a check *fails*, the message is
  the full-mode message plus the documented
  `` [transient: site ...; blame ...]`` suffix and nothing else.
* **Engine agreement** — all three engines agree on transient output,
  on every ``InterpStats`` counter, and on the exact blame text.
* **Counter invariance** — ``dfall_checks``/``bound_checks``/
  ``snapshots`` are identical between full and transient mode (shallow
  probes count as the checks they replace), so profiles and the
  static-vs-observed oracle are check-mode-invariant.  Only
  ``shallow_checks`` and ``copies`` may differ, in transient's favour.
* **Blame map** — failures name the originating site: the tagging
  snapshot for re-snapshot and dfall failures, ``construction`` for
  objects born with a concrete mode.
"""

import pathlib
import re

import pytest

from repro.lang import run_source
from repro.lang.interp import InterpOptions
from repro.platform.systems import make_platform

ROOT = pathlib.Path(__file__).resolve().parents[2]
EXAMPLES = sorted((ROOT / "examples" / "ent").glob("*.ent"))
ENGINES = ("walk", "vm", "jit")

#: The only permitted difference between full and transient output.
BLAME_SUFFIX = re.compile(r" \[transient[^\]]*\]")

#: Counters that must not care whether checks are deep or shallow.
MODE_INVARIANT = ("dfall_checks", "bound_checks", "snapshots",
                  "mcase_elims", "dfall_elided",
                  "bound_checks_elided")


def _run(path, engine, checks, battery=None):
    platform = None
    if battery is not None:
        platform = make_platform("A", seed=0, battery_fraction=battery)
    return run_source(path.read_text(),
                      platform=platform,
                      options=InterpOptions(engine=engine,
                                            checks=checks))


def _normalize(lines):
    return [BLAME_SUFFIX.sub("", line) for line in lines]


# ---------------------------------------------------------------------------
# Differential: full vs transient, across all three engines


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
def test_transient_output_matches_full_modulo_blame(path):
    for engine in ENGINES:
        full = _run(path, engine, "full")
        transient = _run(path, engine, "transient")
        assert _normalize(transient.output) == full.output
        # Full mode never emits the suffix in the first place.
        assert full.output == _normalize(full.output)


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
def test_transient_engines_agree_exactly(path):
    reference = _run(path, "walk", "transient")
    for engine in ENGINES[1:]:
        other = _run(path, engine, "transient")
        assert other.output == reference.output, engine


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
def test_check_counters_are_mode_and_engine_invariant(path):
    reference = None
    for engine in ENGINES:
        full = _run(path, engine, "full")
        transient = _run(path, engine, "transient")
        counters = {name: getattr(transient.stats, name)
                    for name in MODE_INVARIANT}
        for name in MODE_INVARIANT:
            assert getattr(full.stats, name) == counters[name], \
                (engine, name)
        assert full.stats.shallow_checks == 0
        assert transient.stats.copies <= full.stats.copies
        counters["shallow_checks"] = transient.stats.shallow_checks
        if reference is None:
            reference = counters
        else:
            assert counters == reference, engine


# ---------------------------------------------------------------------------
# Blame map: failures name the originating site


@pytest.mark.parametrize("engine", ENGINES)
def test_blame_construction_crawler(engine):
    """Low battery rejects the heavyweight Site; the blame names the
    bounded-snapshot site and the Site's construction (it was never
    tagged by an earlier snapshot)."""
    interp = _run(ROOT / "examples" / "ent" / "crawler.ent",
                  engine, "transient", battery=0.3)
    line = next(l for l in interp.output
                if l.startswith("EnergyException"))
    assert ("[transient: site snapshot_bound@56:18; "
            "blame construction]") in line
    full = _run(ROOT / "examples" / "ent" / "crawler.ent",
                engine, "full", battery=0.3)
    assert _normalize(interp.output) == full.output


@pytest.mark.parametrize("engine", ENGINES)
def test_blame_construction_sensors(engine):
    """At 0.3 battery the hourly sweep's snapshot fails *outside* any
    handler, so the blame surfaces on the escaping exception."""
    from repro.core.errors import EnergyException

    with pytest.raises(EnergyException) as transient_exc:
        _run(ROOT / "examples" / "ent" / "sensors.ent",
             engine, "transient", battery=0.3)
    message = str(transient_exc.value)
    assert ("[transient: site snapshot_bound@49:21; "
            "blame construction]") in message
    with pytest.raises(EnergyException) as full_exc:
        _run(ROOT / "examples" / "ent" / "sensors.ent",
             engine, "full", battery=0.3)
    assert BLAME_SUFFIX.sub("", message) == str(full_exc.value)


@pytest.mark.parametrize("engine", ENGINES)
def test_blame_dfall_names_tagging_snapshot(engine):
    """media.ent's waterfall violation: the dfall failure blames the
    snapshot that tagged the receiver, not the send site alone."""
    interp = _run(ROOT / "examples" / "ent" / "media.ent",
                  engine, "transient")
    line = next(l for l in interp.output if "waterfall" in l)
    assert ("[transient: site dfall@55:16; "
            "blame snapshot_bound@62:33]") in line


RESNAPSHOT = """modes { energy_saver <= managed; managed <= full_throttle; }
class R@mode<?X> {
    int load;
    attributor {
        if (load > 10) { return full_throttle; }
        return energy_saver;
    }
    R(int load) { this.load = load; }
}
class Main {
    void main() {
        R@mode<?> r = new R@mode<?>(50);
        R a = snapshot r [_, full_throttle];
        try {
            R b = snapshot r [_, managed];
        } catch (EnergyException e) {
            Sys.print("caught: " + e);
        }
    }
}
"""


@pytest.mark.parametrize("engine", ENGINES)
def test_blame_resnapshot_names_first_snapshot(engine):
    """A failing re-snapshot (shallow tag-vs-bounds probe) blames the
    snapshot that tagged the object, two lines earlier."""
    interp = run_source(RESNAPSHOT,
                        options=InterpOptions(engine=engine,
                                              checks="transient"))
    assert len(interp.output) == 1
    assert ("[transient: site snapshot_bound@15:19; "
            "blame snapshot_bound@13:15]") in interp.output[0]
    assert interp.stats.shallow_checks == 2
    full = run_source(RESNAPSHOT,
                      options=InterpOptions(engine=engine,
                                            checks="full"))
    assert _normalize(interp.output) == full.output
    assert full.stats.shallow_checks == 0


# ---------------------------------------------------------------------------
# Collapsing actually collapses: re-snapshot loops stop copying

HOT_RESNAPSHOT = """modes { energy_saver <= managed; managed <= full_throttle; }
class R@mode<?X> {
    int load;
    attributor {
        if (load > 100) { return full_throttle; }
        if (load > 10) { return managed; }
        return energy_saver;
    }
    R(int load) { this.load = load; }
    int get() { return load; }
}
class Main {
    void main() {
        R@mode<?> r = new R@mode<?>(50);
        int total = 0;
        int i = 0;
        while (i < 200) {
            R s = snapshot r [managed, full_throttle];
            total = total + s.get();
            i = i + 1;
        }
        Sys.print(total);
    }
}
"""


@pytest.mark.parametrize("engine", ENGINES)
def test_transient_resnapshot_loop_is_shallow(engine):
    transient = run_source(HOT_RESNAPSHOT,
                           options=InterpOptions(engine=engine,
                                                 checks="transient"))
    full = run_source(HOT_RESNAPSHOT,
                      options=InterpOptions(engine=engine,
                                            checks="full"))
    assert transient.output == full.output == ["10000"]
    # Same checks performed...
    assert transient.stats.bound_checks == full.stats.bound_checks == 200
    assert transient.stats.dfall_checks == full.stats.dfall_checks
    # ...but transient never re-runs the attributor or copies: one tag
    # probe per re-snapshot, one per residual dfall.
    assert transient.stats.copies == 0
    assert full.stats.copies >= 199
    assert transient.stats.shallow_checks == 400
    assert full.stats.shallow_checks == 0
