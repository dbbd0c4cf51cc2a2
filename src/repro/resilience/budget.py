"""Unified resource governance for every fixpoint phase.

One :class:`Budget`, carried on :class:`~repro.config.EngineConfig`,
bounds every phase of an evaluation — grounding, the alternating
fixpoint, the unfounded-set iteration, the per-component dispatch and an
incremental refresh:

* ``max_seconds`` — a wall-clock deadline for the whole evaluation;
* ``max_steps`` — a cap on fixpoint steps (alternation stages, unfounded
  iterations, component dispatches, refresh units — whatever the active
  phase counts as one unit of progress);
* ``token`` — a :class:`CancelToken` that any thread may ``cancel()``;
  the evaluation notices at its next checkpoint and raises
  :class:`~repro.exceptions.Cancelled`.

At solve entry the budget is *started*: a :class:`BudgetMeter` computes
the absolute deadline and is installed as the ambient meter for the
dynamic extent of the run (a :class:`contextvars.ContextVar`, so nested
solves and threads stay independent).  Hot loops fetch the ambient meter
once and call :meth:`BudgetMeter.tick` (strided — consults the clock
every *stride* calls) or :meth:`BudgetMeter.step` (counts one fixpoint
step and checks everything).  When no budget is set the ambient meter is
the shared no-op :data:`NULL_METER`, mirroring the ``NullRecorder``
idiom of :mod:`repro.obs` so the disabled path costs one predictable
no-op call.

A deadline that trips during the grounding phase raises
:class:`~repro.exceptions.GroundingTimeout`, which is both a
:class:`~repro.exceptions.BudgetExceeded` and a
:class:`~repro.exceptions.GroundingError`, so either ``except`` clause
observes the abort.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Iterator, Optional, Union

from ..exceptions import BudgetExceeded, Cancelled, GroundingTimeout

__all__ = [
    "Budget",
    "BudgetMeter",
    "CancelToken",
    "NULL_METER",
    "NullMeter",
    "current_meter",
    "metered",
]


class CancelToken:
    """Cooperative cancellation flag, safe to set from any thread.

    Hand the token to a :class:`Budget`, run the evaluation in one
    thread, and call :meth:`cancel` from another; the run aborts with
    :class:`~repro.exceptions.Cancelled` at its next budget checkpoint.
    :meth:`reset` re-arms a token so a recovered session can reuse its
    configuration after a cancelled request.
    """

    __slots__ = ("_event",)

    def __init__(self) -> None:
        self._event = threading.Event()

    def cancel(self) -> None:
        """Request cancellation (idempotent, thread-safe)."""
        self._event.set()

    def reset(self) -> None:
        """Clear a previous cancellation so the token can be reused."""
        self._event.clear()

    @property
    def cancelled(self) -> bool:
        return self._event.is_set()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "armed"
        return f"CancelToken({state})"


@dataclass(frozen=True)
class Budget:
    """Declarative resource limits for one evaluation.

    The budget itself is immutable and reusable; every solve/refresh that
    honours it starts a fresh :class:`BudgetMeter`, so ``max_seconds`` is
    a per-operation deadline, not a lifetime allowance.
    """

    max_seconds: Optional[float] = None
    max_steps: Optional[int] = None
    token: Optional[CancelToken] = None

    def __post_init__(self) -> None:
        if self.max_seconds is not None:
            seconds = float(self.max_seconds)
            if seconds <= 0:
                raise ValueError(f"Budget.max_seconds must be positive, got {self.max_seconds!r}")
            object.__setattr__(self, "max_seconds", seconds)
        if self.max_steps is not None:
            if not isinstance(self.max_steps, int) or self.max_steps <= 0:
                raise ValueError(f"Budget.max_steps must be a positive int, got {self.max_steps!r}")
        if self.token is not None and not isinstance(self.token, CancelToken):
            raise ValueError(f"Budget.token must be a CancelToken, got {type(self.token).__name__}")

    @property
    def bounded(self) -> bool:
        """True when the budget can actually abort anything."""
        return self.max_seconds is not None or self.max_steps is not None or self.token is not None

    def start(self, parent: "BudgetMeter | NullMeter | None" = None) -> "BudgetMeter":
        """Begin metering this budget now (computes the absolute deadline)."""
        return BudgetMeter(self, parent=parent)

    def describe(self) -> str:
        parts = []
        if self.max_seconds is not None:
            parts.append(f"max_seconds={self.max_seconds:g}")
        if self.max_steps is not None:
            parts.append(f"max_steps={self.max_steps}")
        if self.token is not None:
            parts.append("token=set")
        return f"budget({', '.join(parts)})" if parts else "budget(unbounded)"


class NullMeter:
    """No-op meter installed when no budget is active.

    Shares its method surface with :class:`BudgetMeter` so hot loops can
    call ``meter.tick(...)`` unconditionally; mirrors the
    ``NullRecorder`` discipline — the disabled path must stay branch-free
    and allocation-free.
    """

    __slots__ = ()

    active = False
    steps = 0

    def elapsed(self) -> float:
        return 0.0

    def check(self, phase: str) -> None:
        pass

    def tick(self, phase: str, stride: int = 64) -> None:
        pass

    def step(self, phase: str) -> None:
        pass


#: The shared no-op meter (ambient default).
NULL_METER = NullMeter()


class BudgetMeter:
    """Runtime state of one started :class:`Budget`.

    ``parent`` chains the enclosing meter when budgets nest (a service
    request's budget around a session's, see :func:`metered`), so the
    inner budget never lifts the outer deadline: whichever limit is
    tighter trips first.
    """

    __slots__ = ("budget", "started", "deadline", "token", "steps", "parent", "_pulse")

    active = True

    def __init__(self, budget: Budget, parent: "BudgetMeter | NullMeter | None" = None) -> None:
        self.budget = budget
        self.started = time.monotonic()
        self.deadline = (
            None if budget.max_seconds is None else self.started + budget.max_seconds
        )
        self.token = budget.token
        self.steps = 0
        self.parent = parent if isinstance(parent, BudgetMeter) else None
        self._pulse = 0  # tick() stride countdown

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def check(self, phase: str) -> None:
        """Consult every limit; raise the phase-appropriate abort."""
        if self.parent is not None:
            self.parent.check(phase)
        if self.token is not None and self.token.cancelled:
            raise Cancelled(
                f"evaluation cancelled during the {phase!r} phase "
                f"after {self.elapsed():.3f}s",
                phase=phase,
                elapsed=self.elapsed(),
                steps=self.steps,
            )
        if self.deadline is not None and time.monotonic() > self.deadline:
            elapsed = self.elapsed()
            if phase == "ground":
                # A wall-clock abort while grounding is a GroundingTimeout,
                # which is both a BudgetExceeded and a GroundingError.
                raise GroundingTimeout(
                    f"grounding exceeded its wall-clock budget after {elapsed:.3f}s",
                    elapsed=elapsed,
                    steps=self.steps,
                )
            raise BudgetExceeded(
                f"evaluation exceeded its wall-clock budget of "
                f"{self.budget.max_seconds:g}s during the {phase!r} phase "
                f"after {elapsed:.3f}s",
                phase=phase,
                elapsed=elapsed,
                steps=self.steps,
            )

    def tick(self, phase: str, stride: int = 64) -> None:
        """Cheap checkpoint for tight loops.

        Consults the limits only every *stride* calls so per-binding /
        per-tuple loops pay one integer increment, not a clock read.
        """
        self._pulse += 1
        if self._pulse >= stride:
            self._pulse = 0
            self.check(phase)

    def step(self, phase: str) -> None:
        """Count one fixpoint step and consult every limit."""
        self.steps += 1
        limit = self.budget.max_steps
        if limit is not None and self.steps > limit:
            raise BudgetExceeded(
                f"evaluation exceeded its step budget of {limit} "
                f"during the {phase!r} phase",
                phase=phase,
                elapsed=self.elapsed(),
                steps=self.steps,
            )
        self.check(phase)


Meter = Union[BudgetMeter, NullMeter]

_ACTIVE: ContextVar[Meter] = ContextVar("repro_budget_meter", default=NULL_METER)


def current_meter() -> Meter:
    """The meter governing the current dynamic extent (or :data:`NULL_METER`)."""
    return _ACTIVE.get()


@contextmanager
def metered(budget: Optional[Budget]) -> Iterator[Meter]:
    """Install a meter for *budget* for the duration of the block.

    With ``budget`` ``None`` (or unbounded) the already-ambient meter is
    yielded unchanged, so entry points called from inside a governed
    solve inherit the outer deadline instead of erasing it.  When the
    ambient meter is already metering this very budget — a config-driven
    entry point calling another with the same config — the outer meter is
    reused too: one budget means one deadline and one step count per
    operation, not a fresh allowance per nesting level.  A different
    budget starts a meter chained to the ambient one, so a nested budget
    never lifts the enclosing deadline: whichever is tighter trips first.
    """
    if budget is None or not budget.bounded:
        yield _ACTIVE.get()
        return
    ambient = _ACTIVE.get()
    if isinstance(ambient, BudgetMeter) and ambient.budget is budget:
        yield ambient
        return
    meter = budget.start(parent=ambient)
    reset = _ACTIVE.set(meter)
    try:
        yield meter
    finally:
        _ACTIVE.reset(reset)
