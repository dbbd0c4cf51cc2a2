"""Immutable per-predicate views of a solved model.

Every read of a :class:`~repro.engine.solver.Solution` — ``relation``,
``undefined_relation``, ``value_of``/``ask``, ``answers`` and the session
and service pagination — is answered from one :class:`ModelView`.  Per
predicate it holds the true and the undefined atoms, the same atoms as
rows of unwrapped constants, the predicate's EDB facts (when the producer
tracks them) and a ``repr``-sorted page order that is computed at most
once.

A one-shot solution builds its view lazily from its interpretation
(:meth:`ModelView.build`).  A session publishes one view per epoch and
derives it from the previous epoch's (:meth:`ModelView.evolve`):

* a predicate with no flip is shared by reference;
* a flipped predicate's sets are rebuilt copy-on-write — one C-level
  symmetric difference per set that moved, plus O(flips) Python work —
  and the page order of a set that moved is sorted afresh when first
  read, so at most once per epoch;
* no view refers to an earlier one, so a retained epoch pins only what
  it shares.

This is the view-delta step of counting and DRed (Gupta, Mumick &
Subrahmanian, SIGMOD 1993) carried through to what readers see.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Optional, Sequence

from ..datalog.atoms import Atom
from ..datalog.terms import Constant
from ..fixpoint.interpretations import TruthValue

__all__ = ["ModelView", "PredicateView", "row_of"]

Row = tuple[object, ...]


def row_of(atom: Atom) -> Row:
    """*atom*'s arguments with constants unwrapped to their Python values."""
    return tuple(term.value if isinstance(term, Constant) else term for term in atom.args)


class PredicateView:
    """One predicate's verdicts in one :class:`ModelView`.

    Immutable once published: a view that moves the predicate makes a new
    one.  The atom sets are always there.  The rows and the page orders
    are derived on first read; once a view has derived a rows set, the
    next epoch's view of the predicate carries it over (patched) instead
    of deriving it again, while the page order of a set that moved is
    sorted again on first read.  They are the one lazily filled corner:
    racing readers compute equal values, so either write may win.
    """

    __slots__ = ("true_atoms", "undefined_atoms", "facts", "_rows", "_orders")

    def __init__(
        self,
        true_atoms: frozenset[Atom],
        undefined_atoms: frozenset[Atom],
        facts: frozenset[Atom],
        rows: Sequence[Optional[frozenset[Row]]] = (None, None),
        orders: Sequence[Optional[tuple[Row, ...]]] = (None, None),
    ) -> None:
        self.true_atoms = true_atoms
        self.undefined_atoms = undefined_atoms
        #: The predicate's EDB facts.  Often the very object ``true_atoms``
        #: is (a predicate no rule derives), and empty in a one-shot view.
        self.facts = facts
        # Indexed by truth: 0 true, 1 undefined.
        self._rows = list(rows)
        self._orders = list(orders)

    def value_of(self, atom: Atom) -> TruthValue:
        if atom in self.true_atoms:
            return TruthValue.TRUE
        if atom in self.undefined_atoms:
            return TruthValue.UNDEFINED
        return TruthValue.FALSE

    def atoms(self, truth: TruthValue = TruthValue.TRUE) -> frozenset[Atom]:
        """The true (or undefined) atoms."""
        return self.undefined_atoms if truth is TruthValue.UNDEFINED else self.true_atoms

    def rows(self, truth: TruthValue = TruthValue.TRUE) -> frozenset[Row]:
        """The true (or undefined) atoms as rows of unwrapped constants."""
        index = _index(truth)
        rows = self._rows[index]
        if rows is None:
            rows = self._rows[index] = frozenset(map(row_of, self.atoms(truth)))
        return rows

    def order(self, truth: TruthValue = TruthValue.TRUE) -> tuple[Row, ...]:
        """The true (or undefined) rows sorted by ``repr`` — the
        deterministic order pagination relies on."""
        index = _index(truth)
        order = self._orders[index]
        if order is None:
            order = self._orders[index] = tuple(sorted(self.rows(truth), key=repr))
        return order

    def _toggled(
        self, true_flips: set[Atom], undefined_flips: set[Atom], fact_flips: set[Atom]
    ) -> "PredicateView":
        """A copy with each set's flipped atoms toggled."""
        atoms = [self.true_atoms, self.undefined_atoms]
        rows, orders = list(self._rows), list(self._orders)
        for index, flips in enumerate((true_flips, undefined_flips)):
            if flips:
                atoms[index] = _toggle(atoms[index], flips)
                if rows[index] is not None:
                    rows[index] = _toggle(rows[index], set(map(row_of, flips)))
                orders[index] = None
        facts = self.facts
        if fact_flips:
            if facts is self.true_atoms and fact_flips == true_flips:
                facts = atoms[0]
            else:
                facts = _toggle(facts, fact_flips)
        return PredicateView(atoms[0], atoms[1], facts, rows, orders)


def _index(truth: TruthValue) -> int:
    return 1 if truth is TruthValue.UNDEFINED else 0


def _toggle(members: frozenset, flips: set) -> frozenset:
    """*members* with every element of *flips* toggled: a C-level copy for
    each direction that moves (faster than ``members ^ flips``, which
    re-inserts every member one by one)."""
    leaving = flips & members
    if leaving:
        members = members - leaving
    if len(leaving) < len(flips):
        members = members | (flips - leaving)
    return members


#: The view of a predicate nothing holds, every derived set already made.
_EMPTY = PredicateView(
    frozenset(), frozenset(), frozenset(), (frozenset(), frozenset()), ((), ())
)


class ModelView:
    """A model as immutable per-predicate views (see the module notes)."""

    __slots__ = ("_predicates",)

    def __init__(self, predicates: Mapping[str, PredicateView]) -> None:
        self._predicates = predicates

    @classmethod
    def build(
        cls,
        true_atoms: Iterable[Atom],
        undefined_atoms: Iterable[Atom],
        facts: Iterable[Atom] = (),
    ) -> "ModelView":
        """A view built from scratch: one pass over each atom set (rows
        and page orders are derived per predicate when first read)."""
        true_by = _grouped(true_atoms)
        undefined_by = _grouped(undefined_atoms)
        facts_by = _grouped(facts)
        predicates: dict[str, PredicateView] = {}
        for name in {*true_by, *undefined_by, *facts_by}:
            true = frozenset(true_by.get(name, ()))
            undefined = frozenset(undefined_by.get(name, ()))
            fact_set = frozenset(facts_by.get(name, ()))
            if fact_set == true:
                fact_set = true
            predicates[name] = PredicateView(true, undefined, fact_set)
        return cls(predicates)

    def predicate(self, name: str) -> PredicateView:
        """The view of predicate *name* (an empty one if nothing holds it)."""
        return self._predicates.get(name, _EMPTY)

    def __iter__(self) -> Iterator[str]:
        """The predicate names the view holds."""
        return iter(self._predicates)

    def true_atoms(self) -> frozenset[Atom]:
        return frozenset().union(*(view.true_atoms for view in self._predicates.values()))

    def undefined_atoms(self) -> frozenset[Atom]:
        return frozenset().union(
            *(view.undefined_atoms for view in self._predicates.values())
        )

    def facts(self) -> frozenset[Atom]:
        return frozenset().union(*(view.facts for view in self._predicates.values()))

    def evolve(self, changes: Iterable[tuple[Atom, TruthValue, bool]]) -> "ModelView":
        """The view after *changes*: ``(atom, verdict, is_fact)`` triples
        for every atom whose verdict or fact status may have moved (any
        superset of the real flips will do).  Predicates where nothing
        moved are shared with this view; the others are rebuilt."""
        predicates = self._predicates
        flips: dict[str, tuple[set[Atom], set[Atom], set[Atom]]] = {}
        for atom, verdict, is_fact in changes:
            current = predicates.get(atom.predicate, _EMPTY)
            moved_true = (atom in current.true_atoms) != (verdict is TruthValue.TRUE)
            moved_undefined = (atom in current.undefined_atoms) != (
                verdict is TruthValue.UNDEFINED
            )
            moved_fact = (atom in current.facts) != is_fact
            if moved_true or moved_undefined or moved_fact:
                sets = flips.get(atom.predicate)
                if sets is None:
                    sets = flips[atom.predicate] = (set(), set(), set())
                if moved_true:
                    sets[0].add(atom)
                if moved_undefined:
                    sets[1].add(atom)
                if moved_fact:
                    sets[2].add(atom)
        if not flips:
            return self
        evolved = dict(predicates)
        for name, (true_flips, undefined_flips, fact_flips) in flips.items():
            view = evolved.get(name, _EMPTY)._toggled(true_flips, undefined_flips, fact_flips)
            if view.true_atoms or view.undefined_atoms or view.facts:
                evolved[name] = view
            else:
                evolved.pop(name, None)
        return ModelView(evolved)


def _grouped(atoms: Iterable[Atom]) -> dict[str, list[Atom]]:
    grouped: dict[str, list[Atom]] = {}
    for atom in atoms:
        found = grouped.get(atom.predicate)
        if found is None:
            grouped[atom.predicate] = [atom]
        else:
            found.append(atom)
    return grouped
