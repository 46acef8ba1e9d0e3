"""Unit tests for the mode lattice (repro.core.modes)."""

import copy
import pickle

import pytest

from repro.core.errors import ModeLatticeError, UnknownModeError
from repro.core.modes import BOTTOM, TOP, Mode, ModeLattice


class TestMode:
    def test_interning(self):
        assert Mode("managed") is Mode("managed")

    def test_equality_by_name(self):
        assert Mode("a_mode") == Mode("a_mode")
        assert Mode("a_mode") != Mode("b_mode")

    def test_str(self):
        assert str(Mode("energy_saver")) == "energy_saver"

    def test_invalid_name_rejected(self):
        with pytest.raises(ModeLatticeError):
            Mode("not a mode")

    def test_empty_name_rejected(self):
        with pytest.raises(ModeLatticeError):
            Mode("")

    def test_hashable(self):
        assert len({Mode("x1"), Mode("x1"), Mode("x2")}) == 2

    @pytest.mark.parametrize("clone", [
        lambda m: pickle.loads(pickle.dumps(m)), copy.copy, copy.deepcopy],
        ids=["pickle", "copy", "deepcopy"])
    def test_clones_are_the_interned_instance(self, clone):
        """Equality is identity, so every way of cloning a mode must
        hand back the interned one."""
        assert clone(Mode("managed")) is Mode("managed")
        assert clone(TOP) is TOP

    def test_dict_keys_and_set_members_survive_pickling(self):
        es, ft = Mode("energy_saver"), Mode("full_throttle")
        table, members = pickle.loads(pickle.dumps(
            ({es: 1, ft: 2}, frozenset({es}))))
        assert table[es] == 1 and table[Mode("full_throttle")] == 2
        assert es in members and ft not in members
        assert {es: 0, **table} == {es: 1, ft: 2}


@pytest.fixture
def chain():
    return ModeLattice.linear(["energy_saver", "managed", "full_throttle"])


class TestModeLattice:
    def test_linear_order(self, chain):
        es, mg, ft = (Mode("energy_saver"), Mode("managed"),
                      Mode("full_throttle"))
        assert chain.leq(es, mg)
        assert chain.leq(mg, ft)
        assert chain.leq(es, ft)  # transitivity
        assert not chain.leq(ft, es)

    def test_reflexive(self, chain):
        for mode in chain:
            assert chain.leq(mode, mode)

    def test_top_bottom(self, chain):
        for mode in chain:
            assert chain.leq(BOTTOM, mode)
            assert chain.leq(mode, TOP)

    def test_declared_modes_excludes_top_bottom(self, chain):
        names = {m.name for m in chain.declared_modes}
        assert names == {"energy_saver", "managed", "full_throttle"}
        assert TOP not in chain.declared_modes
        assert BOTTOM not in chain.declared_modes

    def test_contains(self, chain):
        assert Mode("managed") in chain
        assert Mode("imaginary") not in chain

    def test_unknown_mode_raises(self, chain):
        with pytest.raises(UnknownModeError):
            chain.leq(Mode("imaginary"), Mode("managed"))

    def test_join_meet_chain(self, chain):
        es, ft = Mode("energy_saver"), Mode("full_throttle")
        assert chain.join(es, ft) == ft
        assert chain.meet(es, ft) == es

    def test_join_meet_identity(self, chain):
        mg = Mode("managed")
        assert chain.join(mg, mg) == mg
        assert chain.meet(mg, mg) == mg

    def test_clamp(self, chain):
        es, mg, ft = (Mode("energy_saver"), Mode("managed"),
                      Mode("full_throttle"))
        assert chain.clamp(mg, es, ft)
        assert not chain.clamp(ft, es, mg)
        assert chain.clamp(mg, mg, mg)

    def test_cycle_rejected(self):
        with pytest.raises(ModeLatticeError):
            ModeLattice.from_names([("la", "lb"), ("lb", "la")])

    def test_self_loop_allowed(self):
        # a <= a is just reflexivity, not a cycle.
        lattice = ModeLattice.from_names([("solo", "solo")])
        assert lattice.leq(Mode("solo"), Mode("solo"))

    def test_incomparable_modes_with_bounds_form_lattice(self):
        # A diamond: bot <= {left, right} <= top via TOP/BOTTOM only is
        # NOT enough: two incomparable modes join at TOP, which is
        # unique, so this is a lattice.
        lattice = ModeLattice.from_names([], extra_modes=["left", "right"])
        assert lattice.join(Mode("left"), Mode("right")) == TOP
        assert lattice.meet(Mode("left"), Mode("right")) == BOTTOM
        assert not lattice.comparable(Mode("left"), Mode("right"))

    def test_non_lattice_rejected(self):
        # Two maximal elements above two minimal elements: {a,b} have
        # two incomparable upper bounds {c,d} below TOP -> no unique
        # least upper bound.
        with pytest.raises(ModeLatticeError):
            ModeLattice.from_names([("na", "nc"), ("na", "nd"),
                                    ("nb", "nc"), ("nb", "nd")])

    def test_chain_topological(self, chain):
        ordered = chain.chain()
        assert [m.name for m in ordered] == ["energy_saver", "managed",
                                             "full_throttle"]

    def test_up_down_sets(self, chain):
        mg = Mode("managed")
        up = {m.name for m in chain.up_set(mg)}
        assert "full_throttle" in up and "managed" in up
        assert "energy_saver" not in up
        down = {m.name for m in chain.down_set(mg)}
        assert "energy_saver" in down and "managed" in down
        assert "full_throttle" not in down

    def test_two_independent_chains(self):
        lattice = ModeLattice.from_names(
            [("c_es", "c_mg"), ("c_mg", "c_ft"),
             ("t_oh", "t_hot"), ("t_hot", "t_safe")])
        assert lattice.leq(Mode("c_es"), Mode("c_ft"))
        assert not lattice.comparable(Mode("c_es"), Mode("t_hot"))

    def test_equality(self):
        a = ModeLattice.linear(["p1", "p2"])
        b = ModeLattice.linear(["p1", "p2"])
        assert a == b

    def test_up_closure_is_read_only_and_pickles(self, chain):
        # ``up`` is the check kernel every runtime reads: it must agree
        # with leq, refuse writes, and survive pickling with the rest.
        for lesser in chain.modes:
            assert chain.up[lesser] == {
                m for m in chain.modes if chain.leq(lesser, m)}
        with pytest.raises(TypeError):
            chain.up[Mode("managed")] = frozenset()
        clone = pickle.loads(pickle.dumps(chain))
        assert clone == chain and clone.up == chain.up

    def test_singleton_lattice(self):
        lattice = ModeLattice.linear(["only"])
        assert Mode("only") in lattice
        assert lattice.leq(Mode("only"), TOP)
