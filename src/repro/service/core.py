"""The concurrency engine of the query service.

:class:`QueryService` turns a single-threaded
:class:`~repro.session.KnowledgeBase` into something many threads can hit
at once, by splitting the session's surface along its natural grain:

* **Reads are snapshot-isolated.**  The service keeps one *published*
  :class:`~repro.session.SessionSnapshot` — an immutable (solution,
  fact count, epoch) triple whose reads go to the epoch's model view —
  and every read request serves entirely from it.  Publishing is a
  single reference assignment, so readers need no lock: a request
  observes exactly one epoch from its first byte to its last, no matter
  how many writes land meanwhile.
* **Writes are serialized.**  All mutations funnel through a bounded
  admission queue into one writer thread, which applies them against the
  knowledge base under a store savepoint, refreshes the model, publishes
  the next snapshot, and only then acknowledges.  A failure anywhere —
  an injected storage fault, a budget deadline, a refusal to solve —
  rolls the savepoint back, so the knowledge base (and the published
  snapshot) stay at the last good epoch and readers never notice.
  Each iteration the writer takes every request already queued, up to
  ``min(queue_size, MAX_COALESCE_WINDOW)``, and applies them under
  **one** savepoint and **one** model refresh (one delta maintenance
  pass), acknowledging each request with the shared epoch — under churn
  this amortises the refresh across the backlog, and with an empty
  backlog it is one refresh per write.  A window runs under every one of
  its requests' budgets; a window that fails falls back to applying its
  requests individually, so one poisoned or expired request cannot fail
  its neighbours.
* **Load is shed, not queued without bound.**  When the write queue is
  full (or the concurrent-reader gate is exhausted) the request is
  rejected immediately with :class:`AdmissionRejected`, which the HTTP
  layer maps to ``503 + Retry-After``.  Every request runs under a
  per-request :class:`~repro.resilience.Budget` deadline; tripping it maps
  to the budget error payload (HTTP 504), cancellation to 499.

The service reuses the shared retry helper
(:func:`repro.resilience.retry.retry_call`) on the writer path: a
transient storage failure (``database is locked``, a scripted
once-off :class:`~repro.resilience.InjectedFault`) is retried with
backoff-plus-jitter before the request is failed.
"""

from __future__ import annotations

import queue
import threading
import time
from contextlib import ExitStack
from dataclasses import dataclass
from typing import Optional, Sequence

from ..datalog.atoms import Atom
from ..datalog.parser import parse_atom
from ..exceptions import (
    BudgetError,
    NotGroundError,
    ReproError,
    StorageError,
    StoreCorrupt,
)
from ..fixpoint.interpretations import TruthValue
from ..obs.recorder import Recorder
from ..resilience.budget import Budget, CancelToken, metered
from ..resilience.retry import RetryPolicy, retry_call
from ..session.knowledge_base import KnowledgeBase, SessionSnapshot

__all__ = [
    "AdmissionRejected",
    "QueryService",
    "ServiceClosed",
    "WriteOutcome",
]

#: Default bound of the write admission queue.
DEFAULT_QUEUE_SIZE = 64
#: Default bound on concurrently admitted read requests.
DEFAULT_MAX_READERS = 64
#: Upper bound on requests coalesced into one refresh window (also capped
#: by the queue size) — keeps per-window latency and rollback scope small.
MAX_COALESCE_WINDOW = 32
#: Hint (seconds) sent as ``Retry-After`` with shed requests.
RETRY_AFTER_HINT = 1


class AdmissionRejected(ReproError):
    """The service shed this request: the write queue (or the reader gate)
    is full.  Carries the ``Retry-After`` hint the HTTP layer forwards."""

    def __init__(self, message: str, retry_after: int = RETRY_AFTER_HINT):
        super().__init__(message)
        self.retry_after = retry_after


class ServiceClosed(ReproError):
    """The service is draining or stopped and accepts no new requests."""


@dataclass
class WriteOutcome:
    """Acknowledgement of one applied write.

    ``changed`` counts the mutations that actually altered the EDB (an
    assert of a present fact is applied-but-unchanged); ``epoch`` is the
    model version the write's refresh published — every read stamped with
    that epoch (or later) observes the write.
    """

    applied: int
    changed: int
    epoch: int


class _WriteRequest:
    """One queued mutation: the operations, the requester's budget, and
    the completion rendezvous between handler and writer threads."""

    __slots__ = ("operations", "budget", "done", "outcome", "error", "abandoned")

    def __init__(
        self, operations: Sequence[tuple[str, Atom]], budget: Optional[Budget]
    ) -> None:
        self.operations = operations
        self.budget = budget
        self.done = threading.Event()
        self.outcome: Optional[WriteOutcome] = None
        self.error: Optional[BaseException] = None
        self.abandoned = False

    def finish(self, outcome: Optional[WriteOutcome], error: Optional[BaseException]) -> None:
        self.outcome = outcome
        self.error = error
        self.done.set()


#: Sentinel that tells the writer thread to exit after draining the queue.
_SHUTDOWN = object()


def _transient_storage_error(error: BaseException) -> bool:
    """The writer's retry classification: storage-level failures are
    presumed transient (lock contention, scripted faults) **except**
    corruption; everything else — budget aborts, domain errors — is not
    contention and propagates immediately."""
    return isinstance(error, StorageError) and not isinstance(error, StoreCorrupt)


class QueryService:
    """Many concurrent readers, one serialized writer, over a live
    :class:`~repro.session.KnowledgeBase`.

    The service owns the knowledge base once :meth:`start` runs: all
    mutations must go through :meth:`submit` (the writer thread is the
    only thread that touches the session), while reads go through the
    published snapshot (:meth:`snapshot`, :meth:`query`, :meth:`ask`,
    :meth:`explain`).  ``recorder`` defaults to the knowledge base's own
    recorder, so per-request ``service.*`` counters and spans land in the
    same trace as the solves they cause.

    Parameters
    ----------
    kb:
        The session to serve.  Not thread-safe by itself — hand it over
        and do not touch it while the service runs.
    queue_size:
        Bound of the write admission queue; a full queue sheds with
        :class:`AdmissionRejected`.
    max_readers:
        Bound on concurrently admitted reads (each read holds a gate slot
        only while it renders its response).
    default_timeout / max_timeout:
        Per-request wall-clock budget (seconds) applied when the request
        does not name one, and the cap a request may ask for.
    retry_policy:
        Backoff schedule for transient writer-side storage failures.
    """

    def __init__(
        self,
        kb: KnowledgeBase,
        *,
        queue_size: int = DEFAULT_QUEUE_SIZE,
        max_readers: int = DEFAULT_MAX_READERS,
        default_timeout: Optional[float] = None,
        max_timeout: float = 30.0,
        retry_policy: Optional[RetryPolicy] = None,
        recorder: Optional[Recorder] = None,
    ) -> None:
        if queue_size < 1:
            raise ValueError(f"queue_size must be >= 1, got {queue_size!r}")
        if max_readers < 1:
            raise ValueError(f"max_readers must be >= 1, got {max_readers!r}")
        self._kb = kb
        self._queue: "queue.Queue[object]" = queue.Queue(maxsize=queue_size)
        self.queue_size = queue_size
        self._read_gate = threading.BoundedSemaphore(max_readers)
        self.max_readers = max_readers
        self.default_timeout = default_timeout
        self.max_timeout = max_timeout
        self._retry_policy = retry_policy if retry_policy is not None else RetryPolicy()
        self._recorder = recorder if recorder is not None else kb.recorder
        # The writer drains up to this many queued requests into one
        # savepoint + one refresh per iteration.
        self._coalesce_window = min(queue_size, MAX_COALESCE_WINDOW)
        self._snapshot: Optional[SessionSnapshot] = None
        self._writer: Optional[threading.Thread] = None
        # Serializes the closed-check-then-enqueue in submit() against
        # stop() flipping ``_closed`` and enqueueing the shutdown
        # sentinel: without it a request could land *after* the sentinel
        # and never be dequeued, blocking its submitter forever.
        self._admission_lock = threading.Lock()
        self._closed = False
        self._started = False
        self._start_time: Optional[float] = None
        self._last_write_error: Optional[str] = None
        # Service-level tallies (lock-guarded: bumped from many threads).
        self._counter_lock = threading.Lock()
        self._counters: dict[str, int] = {}

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "QueryService":
        """Solve the initial model, publish epoch 1, start the writer."""
        if self._started:
            return self
        self._snapshot = self._kb.snapshot()
        self._writer = threading.Thread(
            target=self._writer_loop, name="repro-service-writer", daemon=True
        )
        self._writer.start()
        self._started = True
        self._start_time = time.monotonic()
        return self

    def stop(self, drain: bool = True) -> None:
        """Stop accepting requests and shut the writer down.

        ``drain=True`` (the default, and what SIGTERM does) lets the
        writer finish every already-admitted write before exiting, so an
        acknowledged 200 is never silently lost; ``drain=False`` fails the
        queued writes with :class:`ServiceClosed` instead.  Idempotent.
        The knowledge base (and its store) remain the caller's to close —
        after the writer has exited, doing so is safe again.
        """
        with self._admission_lock:
            already_stopped = not self._started or self._closed
            self._closed = True
        if already_stopped:
            return
        if not drain:
            # Fail whatever is still queued; the writer then only sees the
            # sentinel.
            while True:
                try:
                    item = self._queue.get_nowait()
                except queue.Empty:
                    break
                if isinstance(item, _WriteRequest):
                    item.finish(None, ServiceClosed("service stopped before apply"))
        self._queue.put(_SHUTDOWN)
        if self._writer is not None:
            self._writer.join()

    def __enter__(self) -> "QueryService":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    @property
    def recorder(self) -> Recorder:
        """The recorder per-request spans and ``service.*`` counters land
        in (the knowledge base's own, unless one was passed)."""
        return self._recorder

    @property
    def running(self) -> bool:
        return (
            self._started
            and not self._closed
            and self._writer is not None
            and self._writer.is_alive()
        )

    # ------------------------------------------------------------------ #
    # Reads — everything below serves from the published snapshot
    # ------------------------------------------------------------------ #
    def snapshot(self) -> SessionSnapshot:
        """The currently published epoch's read view.

        Grab it once per request: the reference may be swapped at any
        moment, but the object it points at never mutates.
        """
        snapshot = self._snapshot
        if snapshot is None:
            raise ServiceClosed("service not started")
        return snapshot

    def admit_read(self) -> "_ReadTicket":
        """Admission-control gate for one read request (context manager).

        Non-blocking: when ``max_readers`` requests are already being
        served the request is shed with :class:`AdmissionRejected` rather
        than queued behind them.
        """
        if self._closed:
            raise ServiceClosed("service is shutting down")
        if not self._read_gate.acquire(blocking=False):
            self.count("service.shed_reads")
            raise AdmissionRejected(
                f"read capacity exhausted ({self.max_readers} in flight)"
            )
        return _ReadTicket(self._read_gate)

    def budget_for(self, timeout: Optional[float]) -> Optional[Budget]:
        """The per-request budget: the requested deadline clamped to
        ``max_timeout``, falling back to ``default_timeout``, with a fresh
        :class:`CancelToken` so an abandoned request can be cancelled."""
        seconds = self.default_timeout if timeout is None else timeout
        if seconds is None:
            return None
        seconds = min(float(seconds), self.max_timeout)
        return Budget(max_seconds=seconds, token=CancelToken())

    def query(
        self,
        predicate: str,
        pattern: Optional[Sequence[object]] = None,
        *,
        truth: str = "true",
        page: int = 1,
        per_page: int = 50,
        max_page_size: int = 100,
        budget: Optional[Budget] = None,
    ) -> dict:
        """Paginated, filtered rows of one relation at the published epoch.

        ``truth`` selects the ``"true"`` or ``"undefined"`` stratum of the
        three-valued model.  Rows are deterministically ordered, so two
        pages fetched under the same epoch never overlap or skip.
        """
        if truth not in ("true", "undefined"):
            raise ReproError(f"truth must be 'true' or 'undefined', got {truth!r}")
        page = max(1, int(page))
        per_page = max(1, min(int(per_page), max_page_size))
        snapshot = self.snapshot()
        with metered(budget) as meter:
            rows = snapshot.rows(
                predicate,
                pattern,
                TruthValue.UNDEFINED if truth == "undefined" else TruthValue.TRUE,
            )
            meter.check("service.query")
        total = len(rows)
        start = (page - 1) * per_page
        self.count("service.queries")
        return {
            "predicate": predicate,
            "truth": truth,
            "rows": rows[start : start + per_page],
            "pagination": {
                "page": page,
                "per_page": per_page,
                "total": total,
                "pages": max(1, -(-total // per_page)),
            },
            "epoch": snapshot.epoch,
            "semantics": snapshot.semantics,
        }

    def ask(self, text: str, *, budget: Optional[Budget] = None) -> dict:
        """Three-valued verdict of a ground conjunctive query at the
        published epoch (variables: use :meth:`answers`)."""
        snapshot = self.snapshot()
        with metered(budget) as meter:
            verdict = snapshot.ask(text)
            meter.check("service.ask")
        self.count("service.asks")
        return {"query": text, "verdict": verdict.value, "epoch": snapshot.epoch}

    def answers(
        self,
        text: str,
        *,
        page: int = 1,
        per_page: int = 50,
        max_page_size: int = 100,
        budget: Optional[Budget] = None,
    ) -> dict:
        """Paginated substitutions satisfying a conjunctive query with
        variables, at the published epoch."""
        page = max(1, int(page))
        per_page = max(1, min(int(per_page), max_page_size))
        snapshot = self.snapshot()
        with metered(budget) as meter:
            bindings = sorted(
                (answer.as_dict() for answer in snapshot.answers(text)),
                key=repr,
            )
            meter.check("service.answers")
        total = len(bindings)
        start = (page - 1) * per_page
        self.count("service.asks")
        return {
            "query": text,
            "answers": bindings[start : start + per_page],
            "pagination": {
                "page": page,
                "per_page": per_page,
                "total": total,
                "pages": max(1, -(-total // per_page)),
            },
            "epoch": snapshot.epoch,
        }

    def explain(self, atom_text: str, *, budget: Optional[Budget] = None) -> dict:
        """Justification of one atom's verdict at the published epoch."""
        atom = parse_atom(atom_text)
        snapshot = self.snapshot()
        with metered(budget) as meter:
            meter.check("service.explain")
            explanation = snapshot.explain(atom)
        self.count("service.explains")
        return {
            "atom": str(atom),
            "verdict": snapshot.value_of(atom).value,
            "explanation": explanation.render().splitlines(),
            "epoch": snapshot.epoch,
        }

    def stats(self) -> dict:
        """Service-level statistics: the published epoch's shape plus the
        admission/writer counters.  Served entirely from the snapshot and
        the service's own tallies — never from the live session, which
        belongs to the writer thread."""
        snapshot = self.snapshot()
        with self._counter_lock:
            counters = dict(sorted(self._counters.items()))
        return {
            "epoch": snapshot.epoch,
            "semantics": snapshot.semantics,
            "facts": snapshot.fact_count,
            "store_rows": snapshot.fact_count,
            "queue_depth": self._queue.qsize(),
            "queue_size": self.queue_size,
            "max_readers": self.max_readers,
            "uptime_s": (
                round(time.monotonic() - self._start_time, 3)
                if self._start_time is not None
                else 0.0
            ),
            "counters": counters,
        }

    def health(self) -> tuple[bool, dict]:
        """Liveness: a snapshot is published and the writer thread is
        running.  Returns ``(healthy, report)``.

        ``store_rows`` is the published epoch's fact count: the report
        never touches the live store, which the writer thread mutates
        concurrently (probing it from handler threads once produced
        spurious 503s under write load, ``dictionary changed size during
        iteration``, exactly what a liveness probe must not do).
        """
        report: dict[str, object] = {}
        healthy = True
        snapshot = self._snapshot
        if snapshot is None:
            healthy = False
            report["store"] = "error: no snapshot published"
        else:
            report["store"] = "ok"
            report["store_rows"] = snapshot.fact_count
        writer_ok = self._writer is not None and self._writer.is_alive()
        report["writer"] = "alive" if writer_ok else "stopped"
        if not self._closed and not writer_ok:
            healthy = False
        if self._last_write_error is not None:
            report["last_write_error"] = self._last_write_error
        report["status"] = "ok" if healthy else "unhealthy"
        return healthy, report

    def readiness(self) -> tuple[bool, dict]:
        """Readiness: a snapshot is published, the service accepts work,
        and the refresh backlog has room.  Returns ``(ready, report)``."""
        snapshot = self._snapshot
        backlog = self._queue.qsize()
        ready = (
            self._started
            and not self._closed
            and snapshot is not None
            and self._writer is not None
            and self._writer.is_alive()
            and backlog < self.queue_size
        )
        report = {
            "status": "ready" if ready else "not ready",
            "epoch": 0 if snapshot is None else snapshot.epoch,
            "backlog": backlog,
            "capacity": self.queue_size,
            "draining": self._closed,
        }
        return ready, report

    # ------------------------------------------------------------------ #
    # Writes — admission, the writer thread, rollback
    # ------------------------------------------------------------------ #
    def submit(
        self,
        operations: Sequence[tuple[str, Atom]],
        *,
        budget: Optional[Budget] = None,
    ) -> WriteOutcome:
        """Submit mutations and wait for the writer to apply them.

        ``operations`` is a sequence of ``("assert" | "retract", atom)``
        pairs, applied atomically: either every operation lands in the
        published model, or the whole request rolls back.  A full queue
        sheds immediately with :class:`AdmissionRejected`; a budget
        deadline that trips while queued or mid-apply cancels the request
        and raises the budget error.
        """
        for kind, atom in operations:
            if kind not in ("assert", "retract"):
                raise ReproError(f"unknown operation {kind!r}")
            if not atom.is_ground:
                raise NotGroundError(f"EDB fact {atom} is not ground")
        request = _WriteRequest(tuple(operations), budget)
        # Check-then-enqueue under the admission lock: once stop() has
        # set ``_closed`` (same lock) the sentinel is the queue's last
        # element and nothing may be enqueued behind it.
        with self._admission_lock:
            if self._closed:
                raise ServiceClosed("service is shutting down")
            try:
                self._queue.put_nowait(request)
            except queue.Full:
                self.count("service.shed_writes")
                raise AdmissionRejected(
                    f"write queue full ({self.queue_size} pending)"
                ) from None
        self.count("service.writes")

        deadline = None
        if budget is not None and budget.max_seconds is not None:
            deadline = time.monotonic() + budget.max_seconds
        timeout = None if deadline is None else max(0.0, deadline - time.monotonic())
        if not request.done.wait(timeout):
            # The deadline expired while the request was queued or being
            # applied.  Cancel cooperatively — the writer rolls back at its
            # next budget checkpoint — and report the budget abort.
            request.abandoned = True
            if budget is not None and budget.token is not None:
                budget.token.cancel()
            self.count("service.budget_aborts")
            raise BudgetError(
                f"write did not complete within {budget.max_seconds:g}s "
                f"(queue depth {self._queue.qsize()})",
                phase="service.write",
                elapsed=budget.max_seconds,
            )
        if request.error is not None:
            if isinstance(request.error, BudgetError):
                self.count("service.budget_aborts")
            raise request.error
        assert request.outcome is not None
        return request.outcome

    def assert_fact(self, atom: Atom, *, budget: Optional[Budget] = None) -> WriteOutcome:
        return self.submit((("assert", atom),), budget=budget)

    def retract_fact(self, atom: Atom, *, budget: Optional[Budget] = None) -> WriteOutcome:
        return self.submit((("retract", atom),), budget=budget)

    def count(self, name: str, amount: int = 1) -> None:
        """Bump one ``service.*`` tally (thread-safe) and mirror it into
        the recorder's counters."""
        with self._counter_lock:
            self._counters[name] = self._counters.get(name, 0) + amount
        if self._recorder.enabled:
            self._recorder.count(name, amount)

    # -- writer internals ------------------------------------------------ #
    def _writer_loop(self) -> None:
        while True:
            item = self._queue.get()
            shutdown = item is _SHUTDOWN
            window: list[_WriteRequest] = []
            if not shutdown:
                window.append(item)
                # Drain whatever else is already queued — never blocking —
                # so one savepoint and one refresh cover the whole backlog.
                # A sentinel popped mid-drain is honoured *after* the
                # window (and never re-queued): the admission lock
                # guarantees nothing was enqueued behind it.
                while len(window) < self._coalesce_window:
                    try:
                        extra = self._queue.get_nowait()
                    except queue.Empty:
                        break
                    if extra is _SHUTDOWN:
                        shutdown = True
                        break
                    window.append(extra)
            live: list[_WriteRequest] = []
            for request in window:
                if request.abandoned:
                    # The submitter gave up while we were busy; skip the
                    # work entirely rather than applying a write nobody
                    # awaits.
                    request.finish(None, ServiceClosed("request abandoned"))
                else:
                    live.append(request)
            if len(live) == 1:
                self._apply_and_finish(live[0])
            elif live:
                self._apply_window(live)
            if shutdown:
                # Backstop: the admission lock means nothing should sit
                # behind the sentinel, but fail rather than strand any
                # straggler so its submitter is always woken.
                while True:
                    try:
                        leftover = self._queue.get_nowait()
                    except queue.Empty:
                        break
                    if isinstance(leftover, _WriteRequest):
                        leftover.finish(
                            None, ServiceClosed("service stopped before apply")
                        )
                break

    def _apply_and_finish(self, request: _WriteRequest) -> None:
        try:
            outcome = self._apply(request)
        except BaseException as error:  # noqa: BLE001 - must not kill the writer
            self.count("service.write_failures")
            self._last_write_error = f"{type(error).__name__}: {error}"
            request.finish(None, error)
        else:
            self.count("service.writes_applied")
            request.finish(outcome, None)

    def _apply_window(self, requests: list[_WriteRequest]) -> None:
        """Apply a coalesced window atomically: one savepoint, every
        request's operations, one refresh, one published snapshot; every
        request is acknowledged with the shared epoch.

        The window runs under every request's budget at once (each meter
        chained to the one before), so the tightest deadline governs it.
        Any failure — a budget trip included — rolls the whole window back
        and re-applies the requests individually through the
        single-request path: the healthy ones still land, and only the
        poisoned or expired one fails, with the same rollback semantics it
        would have had on its own.
        """
        store = self._kb.store
        token = store.savepoint()
        try:
            with self._recorder.span(
                "service.apply_window",
                requests=len(requests),
                operations=sum(len(r.operations) for r in requests),
            ), ExitStack() as budgets:
                changed_counts: list[int] = []
                for request in requests:
                    meter = budgets.enter_context(metered(request.budget))
                    changed = 0
                    for kind, atom in request.operations:
                        if kind == "assert":
                            changed += bool(self._kb.assert_fact(atom))
                        else:
                            changed += bool(self._kb.retract_fact(atom))
                    changed_counts.append(changed)
                meter.check("service.apply")
                # The session refreshes lazily, so this is the window's
                # single maintenance pass over every queued mutation.
                snapshot = self._kb.snapshot()
        except BaseException:  # noqa: BLE001 - fall back to per-request apply
            store.rollback_to(token)
            self.count("service.coalesce_fallbacks")
            for request in requests:
                self._apply_and_finish(request)
            return
        store.release(token)
        self._snapshot = snapshot
        self.count("service.coalesced_windows")
        self.count("service.coalesced_requests", len(requests))
        for request, changed in zip(requests, changed_counts):
            self.count("service.writes_applied")
            request.finish(
                WriteOutcome(
                    applied=len(request.operations),
                    changed=changed,
                    epoch=snapshot.epoch,
                ),
                None,
            )

    def _apply(self, request: _WriteRequest) -> WriteOutcome:
        """Apply one write request: mutate under a savepoint, refresh,
        publish the new snapshot — or roll everything back.

        Transient storage faults retry the whole savepoint-wrapped unit
        under the shared backoff policy; each retry starts from the last
        good state because the failed attempt's savepoint was rolled back.
        """

        def _on_retry(attempt: int, error: BaseException) -> None:
            self.count("service.write_retries")

        def _attempt() -> WriteOutcome:
            store = self._kb.store
            token = store.savepoint()
            try:
                with self._recorder.span("service.apply", operations=len(request.operations)):
                    with metered(request.budget) as meter:
                        changed = 0
                        for kind, atom in request.operations:
                            if kind == "assert":
                                changed += bool(self._kb.assert_fact(atom))
                            else:
                                changed += bool(self._kb.retract_fact(atom))
                            meter.tick("service.apply", stride=32)
                        meter.check("service.apply")
                        # The refresh inherits this request's ambient meter,
                        # so the deadline covers mutation + re-solve end to
                        # end; a trip rolls the savepoint back below.
                        snapshot = self._kb.snapshot()
            except BaseException:
                store.rollback_to(token)
                raise
            store.release(token)
            # Publish: one reference assignment — readers pick the new
            # epoch up on their next request; in-flight reads finish on
            # the old snapshot, whose pins the GC releases once the last
            # reader drops it.
            self._snapshot = snapshot
            return WriteOutcome(
                applied=len(request.operations), changed=changed, epoch=snapshot.epoch
            )

        return retry_call(
            _attempt,
            retryable=_transient_storage_error,
            policy=self._retry_policy,
            on_retry=_on_retry,
        )


class _ReadTicket:
    """Context manager releasing one reader-gate slot."""

    __slots__ = ("_gate",)

    def __init__(self, gate: threading.BoundedSemaphore) -> None:
        self._gate = gate

    def __enter__(self) -> "_ReadTicket":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._gate.release()
