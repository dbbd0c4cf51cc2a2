"""The in-memory :class:`FactStore` backend.

:class:`MemoryStore` keeps EDB facts as one insertion-ordered row dict per
``(predicate, arity)``: membership, insertion and removal are hash
lookups, and :meth:`MemoryStore.tuples` reads a relation in the order its
rows arrived.  The store keeps no indexes — a grounding run
reads the rows once into the grounder's own relations, which index what
its joins probe.
"""

from __future__ import annotations

from typing import Iterator

from ..datalog.atoms import Atom
from ..datalog.terms import Term
from ..exceptions import StorageError
from .base import FactStore, Signature

__all__ = ["MemoryStore"]


class MemoryStore(FactStore):
    """In-memory fact storage (the default backend)."""

    def __init__(self) -> None:
        super().__init__()
        # Signature -> rows in insertion order (a dict used as an ordered
        # set); an emptied relation is dropped.
        self._relations: dict[Signature, dict[tuple[Term, ...], None]] = {}
        # Journal of (atom, added) while savepoints are open; savepoint
        # tokens are journal marks.
        self._journal: list[tuple[Atom, bool]] = []
        self._savepoints: list[int] = []

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    def _put(self, atom: Atom) -> bool:
        rows = self._relations.setdefault((atom.predicate, atom.arity), {})
        if atom.args in rows:
            return False
        rows[atom.args] = None
        return True

    def _drop(self, atom: Atom) -> bool:
        signature = (atom.predicate, atom.arity)
        rows = self._relations.get(signature)
        if rows is None or atom.args not in rows:
            return False
        del rows[atom.args]
        if not rows:
            del self._relations[signature]
        return True

    def add_atom(self, atom: Atom) -> bool:
        self._check_ground(atom)
        if not self._put(atom):
            return False
        if self._savepoints:
            self._journal.append((atom, True))
        self._notify(atom, True)
        return True

    def remove_atom(self, atom: Atom) -> bool:
        if not self._drop(atom):
            return False
        if self._savepoints:
            self._journal.append((atom, False))
        self._notify(atom, False)
        return True

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def contains_atom(self, atom: Atom) -> bool:
        rows = self._relations.get((atom.predicate, atom.arity))
        return rows is not None and atom.args in rows

    def signatures(self) -> set[Signature]:
        return set(self._relations)

    def tuples(self, predicate: str, arity: int) -> Iterator[tuple[Term, ...]]:
        return iter(tuple(self._relations.get((predicate, arity), ())))

    def count(self, predicate: str, arity: int) -> int:
        return len(self._relations.get((predicate, arity), ()))

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
                self._drop(atom)
            else:
                self._put(atom)
            self._notify(atom, not added)
        if not self._savepoints:
            self._journal.clear()

    def release(self, token: object) -> None:
        self._pop_savepoint(token)
        if not self._savepoints:
            self._journal.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MemoryStore({len(self)} facts, {len(self.signatures())} relations)"
