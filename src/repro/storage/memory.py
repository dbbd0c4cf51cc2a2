"""The in-memory :class:`FactStore` backend.

:class:`MemoryStore` unifies the two in-memory fact representations the
repo used to maintain separately: the plain per-relation tuple sets of the
old ``Database`` and the lazily hash-indexed
:class:`~repro.datalog.joins.Relation` machinery the grounder rebuilt from
scratch on every run.  Facts live in one set of ``Relation`` objects,
keyed on ``(predicate, arity)``; the bound-position indexes built by one
grounding run survive into the next, so the semi-naive grounder probes the
live EDB instead of re-inserting and re-indexing every fact per solve.

Removal tombstones the row (keeping outstanding sequence numbers valid —
see :meth:`Relation.remove`) and compacts a relation once tombstones
outnumber live rows, so long assert/retract sessions stay bounded.
"""

from __future__ import annotations

from typing import Iterator, Optional

from ..datalog.atoms import Atom
from ..datalog.joins import Relation, RelationStore
from ..datalog.terms import Term
from ..exceptions import StorageError
from .base import FactStore

__all__ = ["MemoryStore", "garbage_dominates"]

#: Tombstones tolerated in a relation before :meth:`Relation.compact` runs.
_COMPACT_THRESHOLD = 64


def garbage_dominates(dead: int, live: int) -> bool:
    """The collection rule for dead entries: more than
    ``_COMPACT_THRESHOLD`` of them, and more than live ones.  A relation's
    tombstones trigger :meth:`Relation.compact` by it, and a non-ground
    session's retracted-but-still-grounded facts trigger a re-ground
    (:mod:`repro.session.incremental`)."""
    return dead > _COMPACT_THRESHOLD and dead > live


class MemoryStore(FactStore):
    """Hash-indexed in-memory fact storage (the default backend)."""

    def __init__(self) -> None:
        super().__init__()
        self._relations = RelationStore()
        # Journal of (atom, added) while savepoints are open; savepoint
        # tokens are journal marks.
        self._journal: list[tuple[Atom, bool]] = []
        self._savepoints: list[int] = []

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    def add_atom(self, atom: Atom) -> bool:
        self._check_ground(atom)
        if not self._relations.add_atom(atom):
            return False
        if self._savepoints:
            self._journal.append((atom, True))
        self._notify(atom, True)
        return True

    def remove_atom(self, atom: Atom) -> bool:
        relation = self._relations.relation(atom.predicate, atom.arity)
        if relation is None or not relation.remove(atom.args):
            return False
        # Compact eagerly when garbage dominates — but never while a
        # savepoint is open, whose rollback replays journal entries that
        # assume stable sequence numbers are irrelevant (it re-adds by
        # value), yet an open grounding run may still hold windows; and
        # never while a snapshot lease is outstanding, whose pinned
        # ``[0, seq)`` windows renumbering would silently corrupt.
        if (
            not self._savepoints
            and not self._pinned()
            and garbage_dominates(relation.dead, len(relation))
        ):
            relation.compact()
        if self._savepoints:
            self._journal.append((atom, False))
        self._notify(atom, False)
        return True

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def contains_atom(self, atom: Atom) -> bool:
        return atom in self._relations

    def signatures(self) -> set[tuple[str, int]]:
        return {
            signature
            for signature, relation in self._relations.relations.items()
            if len(relation)
        }

    def tuples(self, predicate: str, arity: int) -> Iterator[tuple[Term, ...]]:
        relation = self._relations.relation(predicate, arity)
        if relation is None:
            return
        for row in relation.rows:
            if row is not None:
                yield row

    def count(self, predicate: str, arity: int) -> int:
        relation = self._relations.relation(predicate, arity)
        return len(relation) if relation is not None else 0

    # ------------------------------------------------------------------ #
    # Grounding support
    # ------------------------------------------------------------------ #
    def relation(self, predicate: str, arity: int) -> Optional[Relation]:
        """The live :class:`Relation` of one signature (``None`` when the
        signature has never been stored) — the zero-copy view grounding
        probes go through."""
        return self._relations.relation(predicate, arity)

    def sequence_bound(self, predicate: str, arity: int) -> int:
        relation = self._relations.relation(predicate, arity)
        return relation.sequence_bound if relation is not None else 0

    def candidate_rows(
        self,
        predicate: str,
        arity: int,
        positions: tuple[int, ...],
        key: tuple[Term, ...],
        lo: int,
        hi: int,
    ) -> Iterator[tuple[int, tuple[Term, ...]]]:
        relation = self._relations.relation(predicate, arity)
        if relation is None:
            return iter(())
        self.probes += 1
        return relation.candidate_rows(positions, key, lo, hi)

    def statistics(self) -> dict[str, int]:
        return self._relations.statistics()

    def index_count(self) -> int:
        return sum(
            len(relation.indexes) for relation in self._relations.relations.values()
        )

    # ------------------------------------------------------------------ #
    # Savepoints
    # ------------------------------------------------------------------ #
    def savepoint(self) -> object:
        token = (len(self._savepoints), len(self._journal))
        self._savepoints.append(len(self._journal))
        return token

    def _pop_savepoint(self, token: object) -> int:
        depth, mark = self._validate_token(token)
        if depth != len(self._savepoints) - 1 or self._savepoints[depth] != mark:
            raise StorageError("savepoints must be resolved innermost-first")
        self._savepoints.pop()
        return mark

    def _validate_token(self, token: object) -> tuple[int, int]:
        if (
            not isinstance(token, tuple)
            or len(token) != 2
            or not all(isinstance(part, int) for part in token)
            or not self._savepoints
        ):
            raise StorageError(f"unknown savepoint token {token!r}")
        return token  # type: ignore[return-value]

    def rollback_to(self, token: object) -> None:
        mark = self._pop_savepoint(token)
        while len(self._journal) > mark:
            atom, added = self._journal.pop()
            if added:
                relation = self._relations.relation(atom.predicate, atom.arity)
                relation.remove(atom.args)
            else:
                self._relations.add_atom(atom)
            self._notify(atom, not added)
        if not self._savepoints:
            self._journal.clear()

    def release(self, token: object) -> None:
        self._pop_savepoint(token)
        if not self._savepoints:
            self._journal.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MemoryStore({len(self)} facts, {len(self.signatures())} relations)"
