"""Unit tests for constraint sets and entailment (paper section 4.1)."""

import pytest

from repro.core.constraints import ConstraintSet
from repro.core.modes import BOTTOM, TOP, Mode, ModeLattice


@pytest.fixture
def lattice():
    return ModeLattice.linear(["energy_saver", "managed", "full_throttle"])


ES, MG, FT = Mode("energy_saver"), Mode("managed"), Mode("full_throttle")


class TestEntailment:
    def test_ground_facts(self, lattice):
        empty = ConstraintSet(lattice)
        assert empty.entails_one(ES, MG)
        assert empty.entails_one(ES, FT)
        assert not empty.entails_one(FT, ES)

    def test_reflexivity_on_variables(self, lattice):
        empty = ConstraintSet(lattice)
        assert empty.entails_one("X", "X")

    def test_bottom_top(self, lattice):
        empty = ConstraintSet(lattice)
        assert empty.entails_one(BOTTOM, "X")
        assert empty.entails_one("X", TOP)

    def test_variable_bounds(self, lattice):
        k = ConstraintSet(lattice, [(MG, "X"), ("X", FT)])
        assert k.entails_one(MG, "X")
        assert k.entails_one("X", FT)
        # Through the variable: managed <= X <= full_throttle.
        assert k.entails_one(ES, "X")        # es <= mg <= X
        assert not k.entails_one(FT, "X")

    def test_transitivity_through_variables(self, lattice):
        k = ConstraintSet(lattice, [("X", "Y"), ("Y", "Z")])
        assert k.entails_one("X", "Z")
        assert not k.entails_one("Z", "X")

    def test_derives_constant_facts_via_variables(self, lattice):
        k = ConstraintSet(lattice, [(MG, "X"), ("X", MG)])
        # X is pinned at managed.
        assert k.entails_one("X", MG) and k.entails_one(MG, "X")

    def test_entails_set(self, lattice):
        k = ConstraintSet(lattice, [(ES, "X"), ("X", MG)])
        weaker = ConstraintSet(lattice, [(ES, "X")])
        assert k.entails(weaker)
        stronger = ConstraintSet(lattice, [("X", ES)])
        assert not k.entails(stronger)

    def test_unentailed_variable_pair(self, lattice):
        empty = ConstraintSet(lattice)
        assert not empty.entails_one("X", "Y")


class TestOperations:
    def test_extend_immutable(self, lattice):
        base = ConstraintSet(lattice)
        extended = base.extend([(ES, "X")])
        assert len(base) == 0
        assert len(extended) == 1
        assert ("energy_saver" and (ES, "X")) in extended

    def test_variables(self, lattice):
        k = ConstraintSet(lattice, [("X", "Y"), (MG, "X")])
        assert k.variables() == {"X", "Y"}

    def test_substitute(self, lattice):
        k = ConstraintSet(lattice, [("X", FT), (ES, "X")])
        ground = k.substitute({"X": MG})
        assert (MG, FT) in ground
        assert (ES, MG) in ground
        assert ground.variables() == frozenset()

    def test_substitute_with_variable(self, lattice):
        k = ConstraintSet(lattice, [("X", FT)])
        renamed = k.substitute({"X": "Y"})
        assert ("Y", FT) in renamed

    def test_invalid_atom_rejected(self, lattice):
        with pytest.raises(TypeError):
            ConstraintSet(lattice, [(3, MG)])

    def test_unknown_mode_rejected(self, lattice):
        with pytest.raises(Exception):
            ConstraintSet(lattice, [(Mode("phantom"), MG)])


class TestConsistency:
    def test_consistent_bounds(self, lattice):
        k = ConstraintSet(lattice, [(ES, "X"), ("X", FT)])
        assert k.consistent()

    def test_inconsistent_squeeze(self, lattice):
        # full_throttle <= X <= energy_saver is unsatisfiable.
        k = ConstraintSet(lattice, [(FT, "X"), ("X", ES)])
        assert not k.consistent()
