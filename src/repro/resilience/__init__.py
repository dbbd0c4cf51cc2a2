"""Resource governance and failure recovery (PR 7).

Two halves:

* :mod:`repro.resilience.budget` — the :class:`Budget` /
  :class:`CancelToken` / :class:`BudgetMeter` machinery giving every
  fixpoint phase (grounding, semi-naive rounds, alternation stages,
  unfounded-set iterations, per-component dispatch, incremental
  refresh) a wall-clock deadline, a step cap, and cooperative
  cancellation, raising the :class:`~repro.exceptions.BudgetExceeded` /
  :class:`~repro.exceptions.Cancelled` hierarchy;
* :mod:`repro.resilience.faults` — :class:`FaultInjectingStore`, a
  deterministic storage-fault harness backing the crash-consistency and
  lockstep-oracle test suites;
* :mod:`repro.resilience.retry` — the shared bounded exponential-backoff
  helper (:class:`RetryPolicy` / :func:`retry_call`, with jitter) used by
  the SQLite backend's statement retries and the query service's
  writer-apply path.
"""

from .budget import (
    NULL_METER,
    Budget,
    BudgetMeter,
    CancelToken,
    NullMeter,
    current_meter,
    metered,
)
from .faults import FaultInjectingStore, InjectedFault
from .retry import RetryExhausted, RetryPolicy, retry_call

__all__ = [
    "Budget",
    "BudgetMeter",
    "CancelToken",
    "FaultInjectingStore",
    "InjectedFault",
    "NULL_METER",
    "NullMeter",
    "RetryExhausted",
    "RetryPolicy",
    "current_meter",
    "metered",
    "retry_call",
]
