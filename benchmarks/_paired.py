"""Paired A/B timing for the overhead guards.

A best-of-N comparison of two single solves of a few milliseconds
compares two noise minima, and on a shared machine one arm's minimum
regularly lands a few percent off the other's.  The guards instead time
*pairs*: each pair runs a batch of calls of both arms back to back,
alternating which arm goes first, and yields one ratio.  Drift within a
pair hits both arms alike, and the decision is the median ratio, which
one disturbed pair cannot move; the interquartile range is reported so a
reader can see how tight the pairs were.  The cyclic garbage collector
stays on: a collection an arm's allocations trigger is part of its cost,
and one that lands in the other arm's batch is absorbed like any other
disturbance.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from typing import Callable

#: Order-alternating pairs, and calls per arm in each pair.
PAIRS = 30
BATCH = 10


@dataclass(frozen=True)
class PairedRatios:
    """Per-pair ``candidate / baseline`` time ratios, with each arm's
    median time per call."""

    ratios: tuple[float, ...]
    baseline_seconds: float
    candidate_seconds: float

    @property
    def median(self) -> float:
        return statistics.median(self.ratios)

    @property
    def quartiles(self) -> tuple[float, float]:
        first, _, third = statistics.quantiles(self.ratios, n=4)
        return first, third

    def describe(self) -> str:
        first, third = self.quartiles
        return (
            f"median ratio {self.median:.3f} over {len(self.ratios)} pairs "
            f"(IQR {first:.3f}-{third:.3f})"
        )


def _batch(function: Callable[[], object], batch: int) -> float:
    start = time.perf_counter()
    for _ in range(batch):
        function()
    return time.perf_counter() - start


def paired_ratios(
    baseline: Callable[[], object],
    candidate: Callable[[], object],
    pairs: int = PAIRS,
    batch: int = BATCH,
) -> PairedRatios:
    """Time *pairs* pairs of *batch*-call batches of both arms, the arm
    that runs first alternating from pair to pair."""
    ratios, baseline_times, candidate_times = [], [], []
    for index in range(pairs):
        if index % 2:
            candidate_time = _batch(candidate, batch)
            baseline_time = _batch(baseline, batch)
        else:
            baseline_time = _batch(baseline, batch)
            candidate_time = _batch(candidate, batch)
        ratios.append(candidate_time / baseline_time)
        baseline_times.append(baseline_time / batch)
        candidate_times.append(candidate_time / batch)
    return PairedRatios(
        tuple(ratios), statistics.median(baseline_times), statistics.median(candidate_times)
    )
