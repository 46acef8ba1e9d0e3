"""Unit tests for runtime values and the pretty-printer."""

import pytest

from types import SimpleNamespace

from repro.core.checks import RunStats, eliminate, snapshot
from repro.core.errors import EntRuntimeError
from repro.core.modes import BOTTOM, TOP, Mode, ModeLattice
from repro.lang.parser import parse_program
from repro.lang.pretty import pretty_program
from repro.lang.types import ClassInfo, ClassTable, ModeParam
from repro.lang.values import MCaseV, ObjectV
from repro.obs.prof import NULL_PROFILER
from repro.obs.tracer import NULL_TRACER

ES, MG, FT = (Mode("energy_saver"), Mode("managed"), Mode("full_throttle"))

TABLE = ClassTable()
TABLE.add(ClassInfo(name="D", superclass="Object",
                    params=[ModeParam(dynamic=True, var="X")]))
TABLE.add(ClassInfo(name="C", superclass="Object",
                    params=[ModeParam(concrete=MG)]))


def kernel_runtime():
    """What the check kernel needs of a runtime, and nothing more."""
    return SimpleNamespace(
        stats=RunStats(), tracer=NULL_TRACER, profiler=NULL_PROFILER,
        lattice=ModeLattice.linear(["energy_saver", "managed",
                                    "full_throttle"]))


def make_object(name, args):
    return ObjectV(TABLE.get(name), args, TABLE.bindings(name, args),
                   {"f": 1})


def make_dynamic_object():
    return make_object("D", (None,))


class TestObjectV:
    def test_effective_mode_dynamic(self):
        obj = make_dynamic_object()
        assert obj.effective_mode is None
        assert obj.bindings["D"] == {"X": None}

    def test_effective_mode_concrete_param(self):
        obj = make_object("C", (MG,))
        assert obj.effective_mode == MG

    def test_shallow_copy_tags(self):
        obj = make_dynamic_object()
        copy = obj.shallow_copy(FT, TABLE)
        assert copy.effective_mode == FT
        assert copy.bindings["D"] == {"X": FT}
        assert obj.effective_mode is None
        assert obj.bindings["D"] == {"X": None}
        assert copy.oid != obj.oid
        assert copy.is_snapshot

    def test_shallow_copy_shares_values_not_map(self):
        obj = make_dynamic_object()
        obj.fields["lst"] = [1]
        copy = obj.shallow_copy(MG, TABLE)
        copy.fields["lst"].append(2)
        assert obj.fields["lst"] == [1, 2]  # value shared
        copy.set_field("f", 99)
        assert obj.get_field("f") == 1      # map not shared

    def test_tag_in_place(self):
        """A first snapshot tags the object itself: the kernel marks it
        (an ENT object is its own tag) and the interpreter re-modes it."""
        obj = make_dynamic_object()
        rt = kernel_runtime()
        mode, copy = snapshot(rt, obj, obj, "D", lambda *args: MG, None,
                              BOTTOM, TOP, None, None, "interp", False,
                              False, True)
        assert (mode, copy) == (MG, None)
        obj.retag(mode, TABLE)
        assert obj.effective_mode == obj.mode == MG
        assert obj.bindings["D"] == {"X": MG}
        assert obj.is_snapshot
        assert obj.provenance == ("snapshot_bound", None)
        assert (rt.stats.snapshots, rt.stats.lazy_tags) == (1, 1)

    def test_unknown_field(self):
        obj = make_dynamic_object()
        with pytest.raises(EntRuntimeError):
            obj.get_field("nope")
        with pytest.raises(EntRuntimeError):
            obj.set_field("nope", 1)

    def test_unique_ids(self):
        assert make_dynamic_object().oid != make_dynamic_object().oid


def select(case, mode):
    return eliminate(kernel_runtime(), "interp", case, mode)


class TestMCaseV:
    """Elimination is the kernel's :func:`eliminate`."""

    def test_select(self):
        case = MCaseV({ES: 1, MG: 2, FT: 3})
        assert select(case, MG) == 2

    def test_missing_branch(self):
        case = MCaseV({MG: 2})
        with pytest.raises(EntRuntimeError, match=(
                r"^mode case has no branch for mode full_throttle "
                r"\(branches: managed\)$")):
            select(case, FT)

    def test_default(self):
        case = MCaseV({MG: 2}, default=0)
        assert select(case, FT) == 0

    def test_none_default_distinct_from_missing(self):
        case = MCaseV({MG: 2}, default=None)
        assert select(case, FT) is None

    def test_dynamic_elimination_rejected(self):
        case = MCaseV({MG: 2})
        with pytest.raises(EntRuntimeError):
            select(case, None)


PROGRAMS = [
    "modes { a <= b; }\nclass C { }",
    """
    modes { energy_saver <= managed; managed <= full_throttle; }
    class Site@mode<?X> {
        List resources;
        attributor {
            if (resources.size() > 50) { return managed; }
            return energy_saver;
        }
        Site(int n) { this.resources = new List(); }
        mcase<int> depth = mcase{
            energy_saver: 1; managed: 2; full_throttle: 3;
        };
        int crawl(int d) {
            int acc = 0;
            foreach (int r : resources) { acc = acc + d; }
            return acc;
        }
    }
    class Main {
        void main() {
            Site ds = new Site@mode<?>(10);
            Site s = snapshot ds [_, managed];
            try { Sys.print(s.crawl(mselect(ds.depth, managed))); }
            catch (EnergyException e) { Sys.print(e); }
        }
    }
    """,
    """
    modes { lo <= hi; }
    class G@mode<lo <= X <= hi> extends Object {
        @mode<hi> int heavy(double d) { return (int) d; }
        @mode<Y> int generic(G@mode<Y> other) { return 1; }
    }
    class Main { void main() { boolean b = !(1 < 2) || true; } }
    """,
]


class TestPrettyRoundTrip:
    @pytest.mark.parametrize("source", PROGRAMS)
    def test_parse_print_parse(self, source):
        first = parse_program(source)
        printed = pretty_program(first)
        second = parse_program(printed)
        # Idempotence: printing the reparsed tree is stable.
        assert pretty_program(second) == printed
