"""Low-overhead engine instrumentation: recorders, spans, counters.

The alternating fixpoint of Van Gelder's paper is a multi-phase
computation — ground the relevant instantiation, condense the atom
dependency graph, dispatch each strongly connected component to the
cheapest sound method, assemble the partial model — and the incremental
session layer adds a second shape (refresh → grounding delta →
per-component maintenance).  This module gives every phase one telemetry
vocabulary:

* a **span** is a named, timed, hierarchical region
  (``solve`` → ``ground`` → ``condense`` → per-``component`` →
  ``assemble``), carrying arbitrary key/value attributes;
* a **counter** is a named monotone tally (rules grounded, delta sizes,
  ``candidate_rows`` probes, Dowling–Gallier counter decrements,
  unfounded-set iterations, incremental cache hits) attached to the
  innermost open span.  Budget-governed runs (:mod:`repro.resilience`)
  additionally emit ``budget.steps`` (fixpoint steps metered) and
  ``budget.elapsed_ms`` (wall-clock under the meter) when they finish —
  including when they finish by exceeding the budget, so a trace of an
  aborted run shows how far it got.

Two recorders implement the protocol:

* :class:`NullRecorder` — the default everywhere.  Its ``span()`` hands
  back one reusable no-op context manager and ``count()`` does nothing;
  hot loops additionally guard on :attr:`Recorder.enabled` so the
  instrumented engine costs a single attribute load per loop when nobody
  is listening.
* :class:`TraceRecorder` — captures the full span tree plus counters,
  exportable as JSONL or a human-readable table via
  :mod:`repro.obs.export`.

This module deliberately imports nothing from the rest of the package so
any layer (storage, grounding, core, session) can depend on it without
cycles.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator

__all__ = [
    "SpanRecord",
    "Recorder",
    "NullRecorder",
    "TraceRecorder",
    "NULL_RECORDER",
    "ensure_recorder",
]


@dataclass
class SpanRecord:
    """One completed (or still open) timed region of a trace.

    ``start`` is seconds since the owning :class:`TraceRecorder`'s epoch;
    ``elapsed`` is filled in when the span closes.  ``counters`` holds the
    tallies incremented while this span was innermost; ``children`` the
    spans opened (and closed) inside it, in order.
    """

    name: str
    start: float
    elapsed: float = 0.0
    attributes: dict[str, object] = field(default_factory=dict)
    counters: dict[str, float] = field(default_factory=dict)
    children: list["SpanRecord"] = field(default_factory=list)

    @property
    def child_elapsed(self) -> float:
        """Total time accounted for by direct children."""
        return sum(child.elapsed for child in self.children)

    def walk(self, depth: int = 0) -> Iterator[tuple[int, "SpanRecord"]]:
        """Yield ``(depth, span)`` over this subtree, pre-order."""
        yield depth, self
        for child in self.children:
            yield from child.walk(depth + 1)


class _NullSpan:
    """The single reusable no-op span handed out by :class:`NullRecorder`."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        return False

    def annotate(self, **attributes: object) -> None:
        """Discard attributes (no trace is being captured)."""


_NULL_SPAN = _NullSpan()


class Recorder:
    """The recorder protocol: ``span(name, **attrs)`` and ``count(name, n)``.

    The base class *is* the null implementation; :class:`TraceRecorder`
    overrides both methods.  Hot loops should hoist
    ``tracing = recorder.enabled`` and skip per-iteration calls entirely
    when it is ``False`` — that keeps the instrumented engine within
    measurement noise of the uninstrumented one.
    """

    #: ``True`` only when the recorder actually captures anything.
    enabled: bool = False

    def span(self, name: str, **attributes: object) -> _NullSpan:
        """Open a timed region; use as a context manager."""
        return _NULL_SPAN

    def count(self, name: str, amount: float = 1) -> None:
        """Add *amount* to the named counter of the innermost open span."""


class NullRecorder(Recorder):
    """Zero-cost default recorder: records nothing, allocates nothing."""

    __slots__ = ()


#: Shared default instance — every ``recorder=None`` resolves to this.
NULL_RECORDER = NullRecorder()


def ensure_recorder(recorder: "Recorder | None") -> Recorder:
    """Resolve an optional ``recorder=`` argument to a live recorder."""
    return recorder if recorder is not None else NULL_RECORDER


class _Span:
    """Context manager pushing/popping one :class:`SpanRecord`."""

    __slots__ = ("_recorder", "record")

    def __init__(self, recorder: "TraceRecorder", record: SpanRecord) -> None:
        self._recorder = recorder
        self.record = record

    def __enter__(self) -> "_Span":
        recorder = self._recorder
        record = self.record
        stack = recorder._stack
        if stack:
            stack[-1].children.append(record)
        else:
            recorder._adopt_root(record)
        stack.append(record)
        record.start = recorder._clock() - recorder._epoch
        return self

    def __exit__(self, *exc_info: object) -> bool:
        recorder = self._recorder
        record = self.record
        record.elapsed = recorder._clock() - recorder._epoch - record.start
        # Tolerate exceptions unwinding through nested spans: pop up to and
        # including this span so the stack stays well-nested.
        stack = recorder._stack
        while stack:
            if stack.pop() is record:
                break
        return False

    def annotate(self, **attributes: object) -> None:
        """Attach key/value attributes to this span (callable after exit —
        useful when the values are only known once the work is done)."""
        self.record.attributes.update(attributes)


class TraceRecorder(Recorder):
    """Captures hierarchical timed spans and named counters.

    ``spans`` holds the completed top-level spans; ``counters`` the
    tallies incremented outside any span.  Spans are well-nested by
    construction: they are context managers pushed onto a stack, so a
    child always opens after and closes before its parent.

    The recorder is **thread-safe**: the span stack is *per thread*
    (:class:`threading.local`), so concurrent readers sharing one
    recorder — the query service traces every request through the
    session's recorder — each build their own well-nested span tree, and
    a span opened in one thread never becomes the accidental parent of
    another thread's work.  The shared structures (the top-level
    ``spans`` list and the span-less ``counters`` map) are guarded by one
    lock; per-span counter/attribute mutation needs no lock because a
    span's innermost-open window belongs to exactly one thread.
    """

    enabled = True

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._epoch = clock()
        self._local = threading.local()
        self._lock = threading.Lock()
        self.spans: list[SpanRecord] = []
        self.counters: dict[str, float] = {}

    @property
    def _stack(self) -> list[SpanRecord]:
        """The calling thread's open-span stack (created on first use)."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _adopt_root(self, record: SpanRecord) -> None:
        """Append a top-level span to the shared list (lock-guarded: many
        threads may open root spans concurrently)."""
        with self._lock:
            self.spans.append(record)

    def span(self, name: str, **attributes: object) -> _Span:
        return _Span(self, SpanRecord(name, 0.0, attributes=attributes))

    def count(self, name: str, amount: float = 1) -> None:
        stack = self._stack
        if stack:
            # The innermost open span of *this* thread: single-owner by
            # construction, so plain dict mutation is safe.
            counters = stack[-1].counters
            counters[name] = counters.get(name, 0) + amount
            return
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    @property
    def elapsed(self) -> float:
        """Seconds since this recorder was created."""
        return self._clock() - self._epoch

    def walk(self) -> Iterator[tuple[int, SpanRecord]]:
        """Yield ``(depth, span)`` over every recorded span, pre-order."""
        with self._lock:
            roots = list(self.spans)
        for span in roots:
            yield from span.walk()

    def counter_totals(self) -> dict[str, float]:
        """All counters aggregated across the whole trace, sorted by name."""
        with self._lock:
            totals = dict(self.counters)
        for _, span in self.walk():
            for name, amount in span.counters.items():
                totals[name] = totals.get(name, 0) + amount
        return dict(sorted(totals.items()))

    def find(self, name: str) -> SpanRecord | None:
        """The first recorded span with the given name, if any."""
        for _, span in self.walk():
            if span.name == name:
                return span
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TraceRecorder({len(self.spans)} top-level spans, "
            f"{len(self.counter_totals())} counters)"
        )
