"""The :class:`FactStore` protocol — one storage API for EDB facts.

The paper frames a logic program as a mapping from EDB instances to IDB
instances (Section 2.5).  :class:`FactStore` is the one container for such
an instance: a grounding run reads it once (:meth:`FactStore.facts`), a
:class:`~repro.session.KnowledgeBase` mutates it, and the CSV helpers of
:mod:`repro.datalog.io` stream through it.  It offers:

* **mutation** — :meth:`add_atom` / :meth:`remove_atom` with change
  notification (:meth:`subscribe`), so a session's incremental engine
  learns about every mutation regardless of who performed it;
* **queries** — membership, per-``(predicate, arity)`` tuple iteration
  in insertion order (relations are keyed on the full signature, never
  the bare name, so ``p/1`` and ``p/2`` cannot collide);
* **transactions** — :meth:`savepoint` / :meth:`rollback_to` /
  :meth:`release`, the substrate of ``KnowledgeBase.batch()``.

Two backends implement the protocol: :class:`~repro.storage.memory.MemoryStore`
(insertion-ordered rows in memory) and
:class:`~repro.storage.sqlite.SqliteStore` (a durable stdlib-``sqlite3``
backend enabling ``KnowledgeBase.open("kb.db")``).

How a join windows and indexes its rows is the grounder's business: it
copies the rows into its own relations (:mod:`repro.datalog.joins`), so a
store keeps no indexes, sequence windows or probe API for it.  A store
hands out no read views either: readers of a session's published epochs
read the epoch's :class:`~repro.engine.view.ModelView`, never the store.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from ..datalog.atoms import Atom
from ..datalog.rules import Program, Rule
from ..datalog.terms import Compound, Constant, Term, Variable
from ..exceptions import NotGroundError

__all__ = ["FactStore", "ChangeListener"]

#: A change-notification callback: ``listener(atom, added)`` is invoked
#: after every successful mutation — ``added`` is ``True`` for an insert,
#: ``False`` for a removal.  Savepoint rollbacks re-notify the *inverse*
#: of every undone mutation, so a listener's view stays consistent.
ChangeListener = Callable[[Atom, bool], None]

Signature = tuple[str, int]


def _coerce_row(values: Sequence[object]) -> tuple[Term, ...]:
    """Coerce plain Python values to constants; terms pass through verbatim
    (a Variable then fails the groundness check instead of being silently
    wrapped into a pseudo-constant)."""
    return tuple(
        value if isinstance(value, (Constant, Variable, Compound)) else Constant(value)
        for value in values
    )


class FactStore(ABC):
    """Abstract base of every fact-storage backend.

    Subclasses implement the primitive atom-level operations; the
    value-coercing conveniences (``add``, ``remove``, ``contains``,
    ``load``, ``values``) and the change-notification plumbing are
    provided here so all backends behave identically.
    """

    def __init__(self) -> None:
        self._listeners: list[ChangeListener] = []
        #: Number of transient-failure retries the backend performed (e.g.
        #: :class:`~repro.storage.sqlite.SqliteStore` re-attempting a
        #: statement after ``database is locked``).  Always 0 for backends
        #: without a retry path.
        self.retries: int = 0

    # ------------------------------------------------------------------ #
    # Change notification
    # ------------------------------------------------------------------ #
    def subscribe(self, listener: ChangeListener) -> None:
        """Register *listener* to be called after every mutation."""
        if listener not in self._listeners:
            self._listeners.append(listener)

    def unsubscribe(self, listener: ChangeListener) -> None:
        """Remove a previously registered listener (no error if absent)."""
        if listener in self._listeners:
            self._listeners.remove(listener)

    def _notify(self, atom: Atom, added: bool) -> None:
        for listener in self._listeners:
            listener(atom, added)

    # ------------------------------------------------------------------ #
    # Primitive mutation / queries (backend-specific)
    # ------------------------------------------------------------------ #
    @abstractmethod
    def add_atom(self, atom: Atom) -> bool:
        """Insert a ground atom; returns whether the store changed."""

    @abstractmethod
    def remove_atom(self, atom: Atom) -> bool:
        """Remove a ground atom; returns whether the store changed."""

    @abstractmethod
    def contains_atom(self, atom: Atom) -> bool:
        """Membership test for a ground atom."""

    @abstractmethod
    def signatures(self) -> set[Signature]:
        """The ``(predicate, arity)`` signatures of the non-empty relations."""

    @abstractmethod
    def tuples(self, predicate: str, arity: int) -> Iterator[tuple[Term, ...]]:
        """The argument tuples of one relation, in insertion order.  All
        rows are read before the first is yielded, so the store may change
        while they are iterated."""

    @abstractmethod
    def count(self, predicate: str, arity: int) -> int:
        """Number of tuples currently in one relation."""

    # ------------------------------------------------------------------ #
    # Savepoints
    # ------------------------------------------------------------------ #
    @abstractmethod
    def savepoint(self) -> object:
        """Open a savepoint and return its token.

        Savepoints nest; each token must be resolved exactly once, with
        either :meth:`rollback_to` or :meth:`release`, innermost first.
        """

    @abstractmethod
    def rollback_to(self, token: object) -> None:
        """Undo every mutation since *token* was taken (notifying the
        inverse of each) and discard the savepoint."""

    @abstractmethod
    def release(self, token: object) -> None:
        """Discard a savepoint, keeping its mutations."""

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Release backend resources.  Idempotent; in-memory backends are
        a no-op."""

    def __enter__(self) -> "FactStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Value-level conveniences (shared by all backends)
    # ------------------------------------------------------------------ #
    def add(self, relation: str, *values: object) -> bool:
        """Insert a tuple, coercing plain Python values to constants."""
        return self.add_atom(Atom(relation, _coerce_row(values)))

    def remove(self, relation: str, *values: object) -> bool:
        """Remove a tuple if present; returns whether the store changed."""
        return self.remove_atom(Atom(relation, _coerce_row(values)))

    def contains(self, relation: str, *values: object) -> bool:
        return self.contains_atom(Atom(relation, _coerce_row(values)))

    def relation_names(self) -> set[str]:
        """The names of the non-empty relations (all arities collapsed)."""
        return {name for name, _ in self.signatures()}

    def values(self, relation: str) -> set[tuple[object, ...]]:
        """All tuples of *relation* (any arity) with constants unwrapped."""
        found: set[tuple[object, ...]] = set()
        for name, arity in self.signatures():
            if name != relation:
                continue
            for row in self.tuples(name, arity):
                found.add(
                    tuple(term.value if isinstance(term, Constant) else term for term in row)
                )
        return found

    def facts(self) -> Iterator[Atom]:
        """Yield every stored fact as a ground atom."""
        for name, arity in sorted(self.signatures()):
            for row in self.tuples(name, arity):
                yield Atom(name, row)

    def load(self, source: "FactStore | Mapping | Iterable[Atom]") -> int:
        """Bulk-insert facts from another store, a ``{relation: rows}``
        mapping, or an iterable of ground atoms; returns how many were new.
        """
        if isinstance(source, FactStore):
            atoms: Iterable[Atom] = source.facts()
        elif isinstance(source, Mapping):
            atoms = (
                Atom(name, _coerce_row(row)) for name, rows in source.items() for row in rows
            )
        else:
            atoms = source
        added = 0
        for atom in atoms:
            if self.add_atom(atom):
                added += 1
        return added

    def stats(self) -> dict[str, object]:
        """Uniform backend statistics, identical in shape for every backend.

        Returns the backend name, a per-relation map of row counts
        (``"pred/arity" -> {"rows"}``), the total row count, ``probes``
        (always 0) and the transient retry count.
        """
        relations = {
            f"{name}/{arity}": {"rows": self.count(name, arity)}
            for name, arity in sorted(self.signatures())
        }
        return {
            "backend": type(self).__name__,
            "relations": relations,
            "rows": sum(info["rows"] for info in relations.values()),
            # Always 0: a grounding run reads the store once and probes its
            # own relations, never the store.  The key stays because the
            # end-to-end benchmark's traced pass still reads it.
            "probes": 0,
            "retries": self.retries,
        }

    def as_program(self) -> Program:
        """The stored facts as a program of fact rules."""
        return Program(Rule(atom) for atom in self.facts())

    def constants(self) -> set[Term]:
        """Every term appearing in some stored tuple."""
        result: set[Term] = set()
        for name, arity in self.signatures():
            for row in self.tuples(name, arity):
                result.update(row)
        return result

    # ------------------------------------------------------------------ #
    # Collection protocol
    # ------------------------------------------------------------------ #
    def __contains__(self, atom: object) -> bool:
        return isinstance(atom, Atom) and self.contains_atom(atom)

    def __iter__(self) -> Iterator[Atom]:
        return self.facts()

    def __len__(self) -> int:
        return sum(self.count(name, arity) for name, arity in self.signatures())

    def _check_ground(self, atom: Atom) -> None:
        if not atom.is_ground:
            raise NotGroundError(f"EDB fact {atom} is not ground")

    def contents(self) -> dict[Signature, frozenset[tuple[Term, ...]]]:
        """The full store as a signature-keyed map of tuple sets — the
        canonical shape for cross-backend equality in tests."""
        return {
            signature: frozenset(self.tuples(*signature))
            for signature in self.signatures()
        }
