"""Mode constraint sets and constraint entailment.

The paper's type system carries a constraint set ``K`` of elements
``eta <= eta'`` where each side is either a declared mode constant or a
mode type variable (written ``mt``).  Entailment ``K |= K'`` holds iff the
reflexive-transitive closure of ``K' ∪ D`` is a subset of the closure of
``K ∪ D``, where ``D`` is the program's mode declaration (section 4.1).

We represent a variable by its name (a plain string) and a constant by a
:class:`~repro.core.modes.Mode`; a constraint is an ordered pair.  The
lattice supplies the ground facts between constants.

Sets are immutable.  Each builds its forward adjacency index on its
first search and answers every query by a fresh search over it:
:meth:`~ConstraintSet.entails_one` answers all but a handful of the
typechecker's queries by its early exits, so a memo of search results
would almost never hit (docs/PERFORMANCE.md, "Memo audit").
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple, Union

from repro.core.modes import BOTTOM, TOP, Mode, ModeLattice

__all__ = ["Atom", "Constraint", "ConstraintSet"]

#: Either a concrete mode or the name of a mode type variable.
Atom = Union[Mode, str]

#: ``lhs <= rhs``.
Constraint = Tuple[Atom, Atom]


def _is_var(atom: Atom) -> bool:
    return isinstance(atom, str)


class ConstraintSet:
    """An immutable set of ``lhs <= rhs`` constraints with entailment.

    Instances are cheap to extend (:meth:`extend` returns a new set) and
    support the two queries the typechecker needs:

    * :meth:`entails_one` — does ``K ∪ D`` derive a single constraint?
    * :meth:`entails` — does it derive every constraint of another set?
    """

    __slots__ = ("_constraints", "lattice", "_fwd")

    def __init__(self, lattice: ModeLattice,
                 constraints: Iterable[Constraint] = (),
                 *, _validated: Optional[FrozenSet[Constraint]] = None) -> None:
        self.lattice = lattice
        if _validated is not None:
            # Internal fast path: atoms were validated by the instance
            # the set was derived from (extend/substitute).
            self._constraints = _validated
        else:
            normalized: Set[Constraint] = set()
            for lhs, rhs in constraints:
                self._check_atom(lhs)
                self._check_atom(rhs)
                normalized.add((lhs, rhs))
            self._constraints = frozenset(normalized)
        self._fwd: Optional[Dict[Atom, Tuple[Atom, ...]]] = None

    def _check_atom(self, atom: Atom) -> None:
        if isinstance(atom, Mode):
            self.lattice.require(atom)
        elif not isinstance(atom, str) or not atom:
            raise TypeError(f"constraint atom must be Mode or variable "
                            f"name, got {atom!r}")

    # ------------------------------------------------------------------

    @property
    def constraints(self) -> FrozenSet[Constraint]:
        return self._constraints

    def extend(self, extra: Iterable[Constraint]) -> "ConstraintSet":
        """A new constraint set with ``extra`` added.

        Only the *new* constraints are validated; the atoms already in
        this set were checked when it was built.
        """
        extra_list: List[Constraint] = []
        for lhs, rhs in extra:
            self._check_atom(lhs)
            self._check_atom(rhs)
            extra_list.append((lhs, rhs))
        combined = self._constraints.union(extra_list)
        if combined == self._constraints:
            return self
        return ConstraintSet(self.lattice, _validated=combined)

    def variables(self) -> FrozenSet[str]:
        """All mode type variables mentioned by the constraints."""
        return frozenset(atom for constraint in self._constraints
                         for atom in constraint if _is_var(atom))

    def substitute(self, mapping: Dict[str, Atom]) -> "ConstraintSet":
        """Point-wise substitution of variables (the paper's ``{iota/iota'}``).

        Validates only the atoms the mapping actually introduces; the
        untouched atoms were validated when this set was built.
        """
        get = mapping.get

        def subst(atom: Atom) -> Atom:
            if type(atom) is str:
                new = get(atom)
                if new is not None:
                    self._check_atom(new)
                    return new
            return atom

        pairs = frozenset((subst(lhs), subst(rhs))
                          for lhs, rhs in self._constraints)
        return ConstraintSet(self.lattice, _validated=pairs)

    # ------------------------------------------------------------------
    # Entailment

    def _index(self) -> Dict[Atom, Tuple[Atom, ...]]:
        """Forward adjacency of the explicit constraints (lazy, cached)."""
        if self._fwd is None:
            fwd: Dict[Atom, List[Atom]] = {}
            for lhs, rhs in self._constraints:
                fwd.setdefault(lhs, []).append(rhs)
            self._fwd = {a: tuple(s) for a, s in fwd.items()}
        return self._fwd

    def _successors(self, atom: Atom) -> Set[Atom]:
        """Atoms one step above ``atom`` under K ∪ D."""
        out: Set[Atom] = set(self._index().get(atom, ()))
        if isinstance(atom, Mode):
            # Ground lattice facts (the full up-set keeps the search
            # shallow), plus the implicit BOTTOM <= var axioms so that
            # collapsed (inconsistent) sets stay transitively closed.
            out.update(self.lattice.up_set(atom))
            if atom == BOTTOM:
                out.update(self.variables())
        else:
            # Implicit var <= TOP axiom.
            out.add(TOP)
        return out

    def _reachable(self, start: Atom) -> Set[Atom]:
        """Everything ``start`` reaches under K ∪ D."""
        seen: Set[Atom] = {start}
        frontier = [start]
        while frontier:
            atom = frontier.pop()
            for nxt in self._successors(atom):
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return seen

    def entails_one(self, lhs: Atom, rhs: Atom) -> bool:
        """Does ``K ∪ D`` derive ``lhs <= rhs``?"""
        self._check_atom(lhs)
        self._check_atom(rhs)
        if lhs == rhs:
            return True
        if lhs == BOTTOM or rhs == TOP:
            return True
        if isinstance(lhs, Mode) and isinstance(rhs, Mode):
            if self.lattice.leq(lhs, rhs):
                return True
        # lhs <= BOTTOM squeezes lhs to the bottom: below everything.
        # TOP <= rhs (rhs squeezed to the top) needs no search of its
        # own: every atom reaches TOP, so lhs reaches all TOP reaches.
        reach = self._reachable(lhs)
        return rhs in reach or BOTTOM in reach

    def entails(self, other: "ConstraintSet") -> bool:
        """``K |= K'``: every constraint of ``other`` is derivable here."""
        return all(self.entails_one(lhs, rhs)
                   for lhs, rhs in other.constraints)

    def consistent(self) -> bool:
        """No two distinct constants are forced into a cycle.

        A constraint set like ``{full <= X, X <= saver}`` (with
        ``saver < full``) is unsatisfiable: it would require
        ``full <= saver``.  We detect this by checking that the closure
        never derives ``a <= b`` for constants with ``not a <= b``.
        """
        constants = {a for c in self._constraints for a in c
                     if isinstance(a, Mode)}
        for a in constants:
            reach = self._reachable(a)
            for b in reach:
                if isinstance(b, Mode) and not self.lattice.leq(a, b):
                    return False
        return True

    # ------------------------------------------------------------------

    def __contains__(self, constraint: Constraint) -> bool:
        return constraint in self._constraints

    def __iter__(self) -> Iterator[Constraint]:
        return iter(self._constraints)

    def __len__(self) -> int:
        return len(self._constraints)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ConstraintSet):
            return NotImplemented
        return (self._constraints == other._constraints
                and self.lattice == other.lattice)

    def __hash__(self) -> int:
        return hash(self._constraints)

    def __repr__(self) -> str:
        parts = sorted(f"{lhs} <= {rhs}" for lhs, rhs in self._constraints)
        return f"ConstraintSet({{{', '.join(parts)}}})"
