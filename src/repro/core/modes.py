"""Mode lattices: the foundation of ENT's type system.

A ``modes { a <= b; b <= c; }`` declaration induces a partial order over
mode constants.  The paper requires the declared order to form a lattice
(program typing, section 4.1), augmented with distinguished top and bottom
elements written ⊤ and ⊥ in the formal system.  This module provides:

* :class:`Mode` — an interned mode constant (including ``TOP`` / ``BOTTOM``);
* :class:`ModeLattice` — the declared partial order with reflexive-
  transitive closure, lattice validation, and join/meet operations.

Mode *variables* (the ``mt`` of the formal syntax) and the dynamic mode
``?`` live in :mod:`repro.lang.types`; this module only knows about
concrete mode constants, which is all the runtime ever manipulates.
"""

from __future__ import annotations

import itertools
from types import MappingProxyType
from typing import (Dict, FrozenSet, Iterable, Iterator, List, Mapping,
                    Optional, Sequence, Tuple)

from repro.core.errors import ModeLatticeError, UnknownModeError

__all__ = ["Mode", "TOP", "BOTTOM", "ModeLattice"]


class Mode:
    """An interned mode constant.

    Two modes are identical iff their names are equal: construction
    interns by name, and :meth:`__reduce__` re-interns on unpickle,
    ``copy`` and ``deepcopy``.  Equality is therefore identity, so
    modes keep ``object``'s ``__eq__`` and ``__hash__``: dict and set
    probes (``lattice.up[guard]``, the profiler's cell keys) make no
    Python-level call.  The distinguished modes ``TOP`` and ``BOTTOM``
    are members of every lattice.
    """

    _interned: Dict[str, "Mode"] = {}

    __slots__ = ("name",)

    def __new__(cls, name: str) -> "Mode":
        existing = cls._interned.get(name)
        if existing is not None:
            return existing
        if not name or not all(ch.isalnum() or ch in "_$" for ch in name):
            raise ModeLatticeError(f"invalid mode name: {name!r}")
        mode = super().__new__(cls)
        mode.name = name
        cls._interned[name] = mode
        return mode

    def __repr__(self) -> str:
        return f"Mode({self.name!r})"

    def __str__(self) -> str:
        return self.name

    def __reduce__(self):
        return (Mode, (self.name,))


#: The greatest mode, written ⊤ in the paper.  The boot configuration of a
#: program runs in ``TOP`` (reduction starts as ``cl(⊤, e)``).
TOP = Mode("$top")

#: The least mode, written ⊥ in the paper.
BOTTOM = Mode("$bottom")


class ModeLattice:
    """The declared partial order over mode constants, closed and validated.

    Parameters
    ----------
    declarations:
        ``(lesser, greater)`` pairs, one per ``m1 <= m2`` clause of a
        ``modes`` declaration.
    extra_modes:
        Mode names that participate in the lattice without appearing in any
        ordering clause (they are still bounded by ``BOTTOM``/``TOP``).

    Raises
    ------
    ModeLatticeError
        If the declared order contains a nontrivial cycle (two distinct
        modes each ≤ the other) or if any pair of modes lacks a unique
        least upper bound / greatest lower bound, i.e. the order is not a
        lattice.
    """

    def __init__(self,
                 declarations: Iterable[Tuple[Mode, Mode]] = (),
                 extra_modes: Iterable[Mode] = ()) -> None:
        self._pairs: List[Tuple[Mode, Mode]] = list(declarations)
        modes = {TOP, BOTTOM}
        modes.update(extra_modes)
        for lesser, greater in self._pairs:
            modes.add(lesser)
            modes.add(greater)
        self._modes: FrozenSet[Mode] = frozenset(modes)
        #: The order's upward closure, mode -> the modes ≥ it: the one
        #: check kernel every runtime reads.  A dfall check holds iff
        #: ``sender in up[guard]``; a snapshot bound check passes iff
        #: ``mode in up[lo] and hi in up[mode]``.  Read-only.
        self.up: Mapping[Mode, FrozenSet[Mode]] = MappingProxyType(
            self._close())
        # Down-sets are the transpose of the up-set closure; precomputing
        # them here makes down_set/meet O(1) lookups instead of per-query
        # scans over the whole lattice.
        self._geq: Dict[Mode, FrozenSet[Mode]] = {
            m: frozenset(o for o in self._modes if m in self.up[o])
            for m in self._modes}
        self._validate_antisymmetry()
        # Validation visits every pair anyway, so it doubles as the pass
        # that fills the join/meet tables consulted by join()/meet().
        self._joins: Dict[Tuple[Mode, Mode], Mode] = {}
        self._meets: Dict[Tuple[Mode, Mode], Mode] = {}
        self._validate_lattice()

    @classmethod
    def from_names(cls, declarations: Iterable[Tuple[str, str]],
                   extra_modes: Iterable[str] = ()) -> "ModeLattice":
        """Build a lattice from ``(lesser_name, greater_name)`` pairs."""
        pairs = [(Mode(a), Mode(b)) for a, b in declarations]
        extras = [Mode(name) for name in extra_modes]
        return cls(pairs, extras)

    @classmethod
    def linear(cls, names: Sequence[str]) -> "ModeLattice":
        """Build a total order ``names[0] <= names[1] <= ...``.

        This is the common case in the paper's benchmarks (e.g.
        ``energy_saver <= managed <= full_throttle``).
        """
        if not names:
            return cls()
        pairs = list(zip(names, names[1:]))
        return cls.from_names(pairs, extra_modes=[names[0]])

    # ------------------------------------------------------------------
    # Construction helpers

    def _close(self) -> Dict[Mode, FrozenSet[Mode]]:
        """Reflexive-transitive closure of the declared order.

        Returns a map from each mode to the frozenset of modes ≥ it.
        ``BOTTOM`` is below everything and ``TOP`` above everything.
        """
        up: Dict[Mode, set] = {m: {m, TOP} for m in self._modes}
        up[BOTTOM] = set(self._modes)
        for lesser, greater in self._pairs:
            up[lesser].add(greater)
        # Warshall-style saturation; lattices here are tiny (a handful of
        # modes), so the cubic closure is perfectly fine.
        changed = True
        while changed:
            changed = False
            for m in self._modes:
                above = up[m]
                for g in list(above):
                    extra = up[g] - above
                    if extra:
                        above.update(extra)
                        changed = True
        return {m: frozenset(s) for m, s in up.items()}

    def _validate_antisymmetry(self) -> None:
        for a, b in itertools.combinations(self._modes, 2):
            if b in self.up[a] and a in self.up[b]:
                raise ModeLatticeError(
                    f"mode declaration cycle: {a} <= {b} and {b} <= {a}")

    def _validate_lattice(self) -> None:
        for m in self._modes:
            self._joins[(m, m)] = m
            self._meets[(m, m)] = m
        for a, b in itertools.combinations(self._modes, 2):
            lub = self._lub(a, b)
            if lub is None:
                raise ModeLatticeError(
                    f"modes {a} and {b} have no unique least upper bound; "
                    f"the declared order is not a lattice")
            glb = self._glb(a, b)
            if glb is None:
                raise ModeLatticeError(
                    f"modes {a} and {b} have no unique greatest lower "
                    f"bound; the declared order is not a lattice")
            self._joins[(a, b)] = self._joins[(b, a)] = lub
            self._meets[(a, b)] = self._meets[(b, a)] = glb

    # ------------------------------------------------------------------
    # Queries

    @property
    def modes(self) -> FrozenSet[Mode]:
        """All modes in the lattice, including ``TOP`` and ``BOTTOM``."""
        return self._modes

    @property
    def declared_modes(self) -> FrozenSet[Mode]:
        """Program-declared modes, i.e. everything but ``TOP``/``BOTTOM``."""
        return self._modes - {TOP, BOTTOM}

    def __contains__(self, mode: Mode) -> bool:
        return mode in self._modes

    def __iter__(self) -> Iterator[Mode]:
        return iter(self._modes)

    def require(self, mode: Mode) -> Mode:
        """Return ``mode`` if declared, else raise :class:`UnknownModeError`."""
        if mode not in self._modes:
            raise UnknownModeError(mode.name)
        return mode

    def leq(self, lesser: Mode, greater: Mode) -> bool:
        """The declared order: ``lesser <= greater``?"""
        try:
            up = self.up[lesser]
        except KeyError:
            raise UnknownModeError(lesser.name) from None
        if greater in up:
            return True
        if greater not in self._modes:
            raise UnknownModeError(greater.name)
        return False

    def lt(self, lesser: Mode, greater: Mode) -> bool:
        """Strict order: ``lesser <= greater`` and the two are distinct."""
        return lesser != greater and self.leq(lesser, greater)

    def comparable(self, a: Mode, b: Mode) -> bool:
        return self.leq(a, b) or self.leq(b, a)

    def up_set(self, mode: Mode) -> FrozenSet[Mode]:
        """All modes ≥ ``mode`` (including itself)."""
        if mode not in self._modes:
            raise UnknownModeError(mode.name)
        return self.up[mode]

    def down_set(self, mode: Mode) -> FrozenSet[Mode]:
        """All modes ≤ ``mode`` (including itself)."""
        try:
            return self._geq[mode]
        except KeyError:
            raise UnknownModeError(mode.name) from None

    def _lub(self, a: Mode, b: Mode) -> Optional[Mode]:
        uppers = self.up[a] & self.up[b]
        minimal = [u for u in uppers
                   if not any(v != u and u in self.up[v] for v in uppers)]
        return minimal[0] if len(minimal) == 1 else None

    def _glb(self, a: Mode, b: Mode) -> Optional[Mode]:
        lowers = self.down_set(a) & self.down_set(b)
        maximal = [l for l in lowers
                   if not any(v != l and v in self.up[l] for v in lowers)]
        return maximal[0] if len(maximal) == 1 else None

    def join(self, a: Mode, b: Mode) -> Mode:
        """Least upper bound.  Always defined for a validated lattice."""
        try:
            return self._joins[(a, b)]
        except KeyError:
            self.require(a)
            self.require(b)
            raise AssertionError("validated lattice lost its join")

    def meet(self, a: Mode, b: Mode) -> Mode:
        """Greatest lower bound.  Always defined for a validated lattice."""
        try:
            return self._meets[(a, b)]
        except KeyError:
            self.require(a)
            self.require(b)
            raise AssertionError("validated lattice lost its meet")

    def clamp(self, mode: Mode, lower: Mode, upper: Mode) -> bool:
        """Is ``lower <= mode <= upper``?  (Snapshot bound check.)"""
        return self.leq(lower, mode) and self.leq(mode, upper)

    def chain(self) -> List[Mode]:
        """Declared modes in some order consistent with ≤ (topological)."""
        remaining = set(self.declared_modes)
        ordered: List[Mode] = []
        while remaining:
            layer = sorted(
                (m for m in remaining
                 if not any(self.lt(o, m) for o in remaining)),
                key=lambda m: m.name)
            assert layer, "cycle survived validation"
            ordered.extend(layer)
            remaining.difference_update(layer)
        return ordered

    def __repr__(self) -> str:
        decls = ", ".join(f"{a} <= {b}" for a, b in self._pairs)
        return f"ModeLattice({{{decls}}})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ModeLattice):
            return NotImplemented
        return self.up == other.up

    def __hash__(self) -> int:
        return hash(frozenset(self.up.items()))

    def __reduce__(self):
        # The read-only closure view does not pickle; rebuild instead.
        return (ModeLattice, (self._pairs, self._modes))
