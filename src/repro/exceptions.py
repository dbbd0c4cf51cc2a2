"""Exception hierarchy for the ``repro`` package.

All errors raised by the library derive from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still being able to distinguish the individual failure modes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class ParseError(ReproError):
    """Raised when a program or query text cannot be parsed.

    Attributes
    ----------
    line, column:
        1-based position of the offending token, when known.
    """

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        location = ""
        if line is not None:
            location = f" (line {line}"
            if column is not None:
                location += f", column {column}"
            location += ")"
        super().__init__(f"{message}{location}")
        self.line = line
        self.column = column


class SafetyError(ReproError):
    """Raised when a rule violates the range-restriction (safety) condition.

    A rule is *safe* when every variable occurring in the head or in a
    negative body literal also occurs in some positive body literal.
    Unsafe rules do not have a well-defined finite grounding.
    """


class GroundingError(ReproError):
    """Raised when a program cannot be grounded.

    Typical causes are an empty Herbrand universe for a rule that requires
    one, or an instantiation that would exceed the configured limits
    (maximum term depth or maximum number of ground rules).
    """


class BudgetError(ReproError):
    """Base class for resource-governance aborts (:mod:`repro.resilience`).

    Attributes
    ----------
    phase:
        Pipeline phase that tripped the limit (``"ground"``, ``"evaluate"``,
        ``"alternating"``, ``"unfounded"``, ``"component"``, ``"refresh"``),
        when known.
    elapsed:
        Seconds actually spent before aborting — a lower bound on the true
        cost of the aborted computation.
    steps:
        Fixpoint steps counted by the active meter before aborting.
    """

    def __init__(
        self,
        message: str,
        phase: str | None = None,
        elapsed: float | None = None,
        steps: int | None = None,
    ):
        super().__init__(message)
        self.phase = phase
        self.elapsed = elapsed
        self.steps = steps


class BudgetExceeded(BudgetError):
    """Raised when evaluation exhausts its wall-clock or step budget."""


class Cancelled(BudgetError):
    """Raised when a cooperative :class:`~repro.resilience.CancelToken`
    was cancelled (typically from another thread) and the evaluation
    noticed at its next budget checkpoint."""


class GroundingTimeout(BudgetExceeded, GroundingError):
    """Raised when a :class:`~repro.resilience.Budget` deadline trips
    while the grounding phase is running (``phase`` is ``"ground"``).

    It is both a :class:`GroundingError` and a :class:`BudgetExceeded`, so
    a caller that guards grounding and one that guards budgets each catch
    it.
    """

    def __init__(
        self,
        message: str,
        elapsed: float | None = None,
        phase: str | None = "ground",
        steps: int | None = None,
    ):
        super().__init__(message, phase=phase, elapsed=elapsed, steps=steps)


class NotStratifiedError(ReproError):
    """Raised when a stratification-based evaluator receives a program that
    has no stratification (i.e. negation occurs inside a recursive cycle)."""


class NotGroundError(ReproError):
    """Raised when an operation that requires a ground (variable-free)
    program or atom receives a non-ground one."""


class UnknownPredicateError(ReproError):
    """Raised when a query mentions a predicate that the program does not
    define and that is not part of the extensional database."""


class EvaluationError(ReproError):
    """Raised when model computation fails for reasons other than the ones
    covered by the more specific exception classes."""


class StorageError(ReproError):
    """Raised by the :mod:`repro.storage` backends: unknown store
    specifications, operations on a closed store, savepoint misuse, or a
    value that the backend cannot serialise."""


class StoreCorrupt(StorageError):
    """Raised when opening a persistent store whose on-disk state fails
    validation — a file that is not a database, a failed
    ``integrity_check``, or catalogue entries whose backing tables are
    missing or have the wrong shape."""


class FormulaError(ReproError):
    """Raised when a first-order formula (Section 8 of the paper) is
    malformed or used in a context where it is not supported."""
