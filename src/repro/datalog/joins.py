"""Hash-join relations for bottom-up grounding.

The grounder's inner loop is a conjunctive join: given a rule body
``b1, ..., bn`` and a growing set of derivable ground atoms, enumerate
every variable binding under which all conjuncts are satisfied.  The
original matcher scanned the whole per-predicate fact list for every
conjunct; this module provides the three ingredients production bottom-up
engines (soufflé / clingo-style) use instead:

* :class:`Relation` — the ground facts of one ``(predicate, arity)``
  signature, stored in insertion order with **lazy hash indexes keyed on
  bound-argument positions**.  A probe with ``k`` bound argument positions
  builds (once, then maintains incrementally) a dict from the projected
  key tuple to the matching row ids, so subsequent probes cost O(1) plus
  the matches instead of a scan.
* **Delta windows** — every row carries its insertion sequence number, so
  a probe can be restricted to rows added before / within / up to a round
  boundary.  This is what makes semi-naive evaluation cheap: the classic
  rewriting evaluates, per rule and round, one variant per positive
  conjunct with that conjunct ranging over the *delta* rows, earlier
  conjuncts over strictly older rows, and later conjuncts over everything
  — enumerating every new binding exactly once.
* **Greedy join ordering** (:func:`greedy_join_order`) — conjuncts are
  reordered so the next atom joined is the one with the most bound
  argument positions (breaking ties toward the smallest row window),
  instead of fixed left-to-right order.

:func:`join_bindings` glues the three together and is the only entry point
the grounder needs.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .atoms import Atom
from .terms import Term, Variable, term_variables
from .unification import Substitution, binding_pattern, match_projected

__all__ = [
    "Relation",
    "RelationStore",
    "greedy_join_order",
    "join_bindings",
]

Window = tuple[int, int]


class Relation:
    """The ground facts of one ``(predicate, arity)`` signature.

    Rows are argument tuples kept in insertion order; ``row_ids`` maps a
    row to its sequence number (doubling as the duplicate filter), and
    ``indexes`` holds one hash index per binding pattern that has actually
    been probed.  Indexes are built lazily from the current rows and then
    maintained incrementally on every :meth:`add`, so the cost of an index
    is only paid for patterns the workload's rules really use.

    Removal (used by the long-lived :class:`repro.storage.MemoryStore`,
    never by a grounding run) leaves a ``None`` tombstone in ``rows`` so
    the sequence numbers of surviving rows — which delta windows and index
    posting lists are keyed on — stay valid; probes skip tombstones, and
    :meth:`compact` rebuilds once the garbage dominates.
    """

    __slots__ = ("predicate", "arity", "rows", "row_ids", "indexes", "dead", "_index_lock")

    def __init__(self, predicate: str, arity: int):
        self.predicate = predicate
        self.arity = arity
        self.rows: list[Optional[tuple[Term, ...]]] = []
        self.row_ids: dict[tuple[Term, ...], int] = {}
        self.indexes: dict[tuple[int, ...], dict[tuple[Term, ...], list[int]]] = {}
        self.dead = 0
        # Serialises index *registration* against row insertion.  A store's
        # relations may be probed on one thread while another appends (a
        # MemoryStore shared by a session and solves or sessions on other
        # threads); a thread lazily building an index meanwhile could
        # otherwise register a posting list missing the new row (the
        # appender's maintenance loop only sees already-registered
        # indexes).  Probes take the lock-free fast path once the index
        # exists.
        self._index_lock = threading.Lock()

    def __len__(self) -> int:
        return len(self.rows) - self.dead

    def __contains__(self, args: tuple[Term, ...]) -> bool:
        return args in self.row_ids

    @property
    def sequence_bound(self) -> int:
        """Exclusive upper bound on row sequence numbers (tombstones
        included, so the bound is monotone under removal)."""
        return len(self.rows)

    def add(self, args: tuple[Term, ...]) -> bool:
        """Append a row unless present; returns True when the row is new.

        New rows are appended to every index already built, keeping lazy
        indexes consistent without rebuilds.
        """
        if args in self.row_ids:
            return False
        with self._index_lock:
            sequence = len(self.rows)
            self.rows.append(args)
            self.row_ids[args] = sequence
            for positions, index in self.indexes.items():
                key = tuple(args[p] for p in positions)
                index.setdefault(key, []).append(sequence)
        return True

    def remove(self, args: tuple[Term, ...]) -> bool:
        """Tombstone a row if present; returns True when a row was removed."""
        sequence = self.row_ids.pop(args, None)
        if sequence is None:
            return False
        self.rows[sequence] = None
        self.dead += 1
        return True

    def compact(self) -> None:
        """Drop tombstones, renumbering the surviving rows.

        Invalidates every outstanding sequence number, so callers must only
        compact between grounding runs — never while delta windows over
        this relation are live.
        """
        if not self.dead:
            return
        with self._index_lock:
            survivors = [args for args in self.rows if args is not None]
            probed = tuple(self.indexes)
            self.rows = survivors
            self.row_ids = {args: sequence for sequence, args in enumerate(survivors)}
            self.dead = 0
            self.indexes = {
                positions: self._build_index(positions) for positions in probed
            }

    def _build_index(
        self, positions: tuple[int, ...]
    ) -> dict[tuple[Term, ...], list[int]]:
        index: dict[tuple[Term, ...], list[int]] = {}
        for sequence, args in enumerate(self.rows):
            if args is None:
                continue
            key = tuple(args[p] for p in positions)
            index.setdefault(key, []).append(sequence)
        return index

    def ensure_index(
        self, positions: tuple[int, ...]
    ) -> dict[tuple[Term, ...], list[int]]:
        """The hash index keyed on the given argument positions, built on
        first use from the current rows.

        The existing-index fast path is lock-free; building takes the
        relation's index lock so a concurrent writer cannot slip a row in
        between the scan and the registration.
        """
        index = self.indexes.get(positions)
        if index is None:
            with self._index_lock:
                index = self.indexes.get(positions)
                if index is None:
                    index = self._build_index(positions)
                    self.indexes[positions] = index
        return index

    def candidates(
        self,
        positions: tuple[int, ...],
        key: tuple[Term, ...],
        lo: int,
        hi: int,
    ) -> Iterator[int]:
        """Row ids in ``[lo, hi)`` whose projection onto *positions* is *key*.

        Three probe shapes: all positions bound is a plain membership test
        on ``row_ids``; no position bound walks the whole window; otherwise
        the lazy hash index is consulted and its (ascending) posting list
        cut to the window with a bisect.  Tombstoned rows never surface.
        """
        rows = self.rows
        if len(positions) == self.arity:
            sequence = self.row_ids.get(key)
            if sequence is not None and lo <= sequence < hi:
                yield sequence
            return
        if not positions:
            for sequence in range(lo, min(hi, len(rows))):
                if rows[sequence] is not None:
                    yield sequence
            return
        postings = self.ensure_index(positions).get(key)
        if not postings:
            return
        start = bisect_left(postings, lo) if lo else 0
        for position in range(start, len(postings)):
            sequence = postings[position]
            if sequence >= hi:
                break
            if rows[sequence] is not None:
                yield sequence

    def candidate_rows(
        self,
        positions: tuple[int, ...],
        key: tuple[Term, ...],
        lo: int,
        hi: int,
    ) -> Iterator[tuple[int, tuple[Term, ...]]]:
        """:meth:`candidates` paired with the rows themselves — the probe
        shape shared with :class:`repro.storage.FactStore` backends, which
        the join enumerator consumes."""
        rows = self.rows
        for sequence in self.candidates(positions, key, lo, hi):
            yield sequence, rows[sequence]

    def statistics(self) -> dict[str, int]:
        return {
            "rows": len(self),
            "indexes": len(self.indexes),
            "index_entries": sum(len(ix) for ix in self.indexes.values()),
        }


class RelationStore:
    """All relations of one grounding run, keyed on ``(predicate, arity)``.

    Keying on the full signature (rather than the predicate name alone)
    means a probe for ``p/2`` never wades through ``p/1`` facts.
    """

    __slots__ = ("relations",)

    def __init__(self) -> None:
        self.relations: dict[tuple[str, int], Relation] = {}

    def relation(self, predicate: str, arity: int) -> Optional[Relation]:
        return self.relations.get((predicate, arity))

    def add_atom(self, atom: Atom) -> bool:
        """Insert a ground atom; returns True when it is new."""
        key = (atom.predicate, atom.arity)
        relation = self.relations.get(key)
        if relation is None:
            relation = self.relations[key] = Relation(atom.predicate, atom.arity)
        return relation.add(atom.args)

    def remove_atom(self, atom: Atom) -> bool:
        """Remove a ground atom (tombstoning its row); True when present."""
        relation = self.relations.get((atom.predicate, atom.arity))
        return relation is not None and relation.remove(atom.args)

    def __contains__(self, atom: Atom) -> bool:
        relation = self.relations.get((atom.predicate, atom.arity))
        return relation is not None and atom.args in relation

    def sizes(self) -> dict[tuple[str, int], int]:
        """Sequence bound per relation — a round boundary snapshot.  Equal
        to the row count under the grounder's add-only usage."""
        return {key: relation.sequence_bound for key, relation in self.relations.items()}

    def statistics(self) -> dict[str, int]:
        return {
            "relations": len(self.relations),
            "rows": sum(len(r) for r in self.relations.values()),
            "indexes": sum(len(r.indexes) for r in self.relations.values()),
        }


def greedy_join_order(
    conjuncts: Sequence[Atom],
    windows: Sequence[Window],
    seed: Optional[int] = None,
    bound: Iterable[Variable] = (),
) -> list[int]:
    """Order the conjuncts for joining, most-bound-first.

    Starting from the *seed* conjunct (the delta atom in semi-naive
    variants, iterated first so every enumerated binding touches the
    delta), repeatedly pick the conjunct whose arguments have the most
    positions fully determined by the variables bound so far, breaking
    ties toward the smaller candidate row window (the per-round
    selectivity bound) and then toward the leftmost conjunct.  Returns
    the conjunct indexes in join order.
    """
    remaining = list(range(len(conjuncts)))
    bound_vars: set[Variable] = set(bound)
    order: list[int] = []

    def admit(index: int) -> None:
        order.append(index)
        remaining.remove(index)
        bound_vars.update(conjuncts[index].variables())

    if seed is not None:
        admit(seed)

    def score(index: int) -> tuple[int, int, int]:
        atom = conjuncts[index]
        bound_positions = sum(
            1
            for arg in atom.args
            if all(variable in bound_vars for variable in term_variables(arg))
        )
        lo, hi = windows[index]
        return (bound_positions, lo - hi, -index)

    while remaining:
        admit(max(remaining, key=score))
    return order


def join_bindings(
    conjuncts: Sequence[Atom],
    windows: Sequence[Window],
    store: RelationStore,
    seed: Optional[int] = None,
    binding: Optional[Mapping[Variable, Term]] = None,
) -> Iterator[Substitution]:
    """Enumerate every binding satisfying all conjuncts within their windows.

    Each conjunct ``i`` ranges over the rows ``windows[i] = (lo, hi)`` of
    its relation.  The join order is chosen greedily (seeded on the delta
    conjunct when given); each step extracts the conjunct's binding
    pattern under the bindings accumulated so far, probes the matching
    hash index, and matches the remaining argument positions to extend the
    binding.  Yielded substitutions are independent dicts.

    *store* need not be a :class:`RelationStore`: any object whose
    ``relation(predicate, arity)`` returns ``None`` or a relation view with
    a :meth:`Relation.candidate_rows`-shaped probe works — this is how the
    grounder joins a live :class:`repro.storage.FactStore` EDB and its
    per-run overlay of derived atoms through one enumerator.
    """
    order = greedy_join_order(conjuncts, windows, seed, binding.keys() if binding else ())
    count = len(order)
    initial: Substitution = dict(binding) if binding else {}

    def extend(step: int, current: Substitution) -> Iterator[Substitution]:
        if step == count:
            yield current
            return
        index = order[step]
        pattern = conjuncts[index]
        lo, hi = windows[index]
        if hi <= lo:
            return
        relation = store.relation(pattern.predicate, pattern.arity)
        if relation is None:
            return
        positions, args = binding_pattern(pattern, current)
        key = tuple(args[p] for p in positions)
        if len(positions) == pattern.arity:
            # Fully bound probe: a membership test, no new bindings.
            for _ in relation.candidate_rows(positions, key, lo, hi):
                yield from extend(step + 1, current)
            return
        free = tuple(p for p in range(pattern.arity) if p not in positions)
        for _, row in relation.candidate_rows(positions, key, lo, hi):
            extended = match_projected(args, row, free, current)
            if extended is not None:
                yield from extend(step + 1, extended)

    yield from extend(0, initial)
