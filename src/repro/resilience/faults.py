"""Deterministic storage fault injection for resilience testing.

:class:`FaultInjectingStore` wraps any :class:`~repro.storage.base.FactStore`
and fails chosen operations with :class:`InjectedFault` — a
:class:`~repro.exceptions.StorageError`, so the injected failures travel
the exact code paths a real backend failure would (mid-batch rollback,
refresh abort, a grounding run's failed read).  Faults are raised
*before* the inner operation runs, so a failed call never half-mutates
the underlying store: the wrapper models clean storage-layer rejections
(lock timeouts, I/O errors surfacing before commit), which is also what
the crash-recovery contracts of :class:`~repro.session.KnowledgeBase` are
written against.

Two deterministic trigger modes, combinable:

* **script** — ``{"add": {3}, "savepoint": {1}}`` fails the Nth call of an
  operation (1-based, counted over the wrapper's lifetime);
* **seed** — ``seed=7, rate=0.05`` draws a reproducible pseudo-random
  schedule from :class:`random.Random`; the decision sequence depends only
  on the seed and the order of operations.

``armed`` switches injection off (counting continues), letting a test
inject a fault and then verify recovery against the intact store.
"""

from __future__ import annotations

import random
from typing import Iterator, Mapping, Optional

from ..datalog.atoms import Atom
from ..datalog.terms import Term
from ..exceptions import StorageError
from ..storage.base import ChangeListener, FactStore, Signature

__all__ = ["FaultInjectingStore", "InjectedFault"]


class InjectedFault(StorageError):
    """The scripted failure raised by :class:`FaultInjectingStore`.

    Carries the *operation* name and 1-based *occurrence* that tripped, so
    assertions can pin exactly which scheduled fault fired.
    """

    def __init__(self, message: str, operation: str | None = None, occurrence: int | None = None):
        super().__init__(message)
        self.operation = operation
        self.occurrence = occurrence


class FaultInjectingStore(FactStore):
    """Wrap *inner*, deterministically failing selected operations.

    The interceptable operations are ``"add"``, ``"remove"``,
    ``"savepoint"`` and ``"read"`` (a :meth:`tuples` call: every read of
    a relation's rows, such as the one read a grounding run makes through
    :meth:`~repro.storage.FactStore.facts`).  Membership tests, counts,
    rollbacks and releases always succeed — a backend that cannot roll
    back cannot offer the savepoint contract at all, so failing those would
    test nothing the API promises.
    """

    OPERATIONS = ("add", "remove", "savepoint", "read")

    def __init__(
        self,
        inner: FactStore,
        script: Optional[Mapping[str, object]] = None,
        seed: Optional[int] = None,
        rate: float = 0.05,
        max_faults: Optional[int] = None,
    ) -> None:
        super().__init__()
        self.inner = inner
        #: Lifetime call counts per interceptable operation.
        self.counts: dict[str, int] = {op: 0 for op in self.OPERATIONS}
        #: Every fault fired so far, as ``(operation, occurrence)`` pairs.
        self.faults: list[tuple[str, int]] = []
        #: When False, no faults fire (counting continues) — lets a test
        #: verify recovery against the intact underlying store.
        self.armed: bool = True
        unknown = set(script or {}) - set(self.OPERATIONS)
        if unknown:
            raise ValueError(
                f"unknown fault operations {sorted(unknown)}; "
                f"expected a subset of {list(self.OPERATIONS)}"
            )
        self._script = {op: frozenset(spec) for op, spec in (script or {}).items()}
        self._random = random.Random(seed) if seed is not None else None
        self._rate = float(rate)
        self._max_faults = max_faults

    # ------------------------------------------------------------------ #
    # Fault scheduling
    # ------------------------------------------------------------------ #
    def _maybe_fail(self, operation: str) -> None:
        self.counts[operation] += 1
        occurrence = self.counts[operation]
        fire = occurrence in self._script.get(operation, ())
        if not fire and self._random is not None:
            # Draw even when disarmed or saturated so the pseudo-random
            # sequence depends only on the seed and the operation order.
            draw = self._random.random() < self._rate
            budget_left = self._max_faults is None or len(self.faults) < self._max_faults
            fire = draw and budget_left
        if fire and self.armed:
            self.faults.append((operation, occurrence))
            raise InjectedFault(
                f"injected storage fault: {operation} call #{occurrence}",
                operation=operation,
                occurrence=occurrence,
            )

    # ------------------------------------------------------------------ #
    # Change notification — listeners must observe the *inner* store,
    # where the mutations (and rollback re-notifications) actually happen.
    # ------------------------------------------------------------------ #
    def subscribe(self, listener: ChangeListener) -> None:
        self.inner.subscribe(listener)

    def unsubscribe(self, listener: ChangeListener) -> None:
        self.inner.unsubscribe(listener)

    # ------------------------------------------------------------------ #
    # Intercepted primitives
    # ------------------------------------------------------------------ #
    def add_atom(self, atom: Atom) -> bool:
        self._maybe_fail("add")
        return self.inner.add_atom(atom)

    def remove_atom(self, atom: Atom) -> bool:
        self._maybe_fail("remove")
        return self.inner.remove_atom(atom)

    def savepoint(self) -> object:
        self._maybe_fail("savepoint")
        return self.inner.savepoint()

    def tuples(self, predicate: str, arity: int) -> Iterator[tuple[Term, ...]]:
        self._maybe_fail("read")
        return self.inner.tuples(predicate, arity)

    # ------------------------------------------------------------------ #
    # Transparent delegation
    # ------------------------------------------------------------------ #
    def contains_atom(self, atom: Atom) -> bool:
        return self.inner.contains_atom(atom)

    def signatures(self) -> set[Signature]:
        return self.inner.signatures()

    def count(self, predicate: str, arity: int) -> int:
        return self.inner.count(predicate, arity)

    def rollback_to(self, token: object) -> None:
        self.inner.rollback_to(token)

    def release(self, token: object) -> None:
        self.inner.release(token)

    def close(self) -> None:
        self.inner.close()

    def stats(self) -> dict[str, object]:
        stats = self.inner.stats()
        stats["fault_injector"] = {
            "armed": self.armed,
            "counts": dict(self.counts),
            "faults": list(self.faults),
        }
        return stats
