"""Semi-naive indexed evaluation engine.

* :mod:`repro.evaluation.indexes`   — per-context rule indexes: watch lists
  per ground body atom plus Dowling–Gallier counter seeds;
* :mod:`repro.evaluation.seminaive` — the delta-driven least-fixpoint
  driver, supporting the two-argument ``C_P(I⁺, Ĩ)`` form with a fixed
  negative context;
* :mod:`repro.evaluation.engine`    — the ``"seminaive"`` / ``"naive"``
  strategy dispatch the rest of the stack talks to.

The semi-naive engine is the default everywhere; the naive engine re-scans
all rules exactly as the paper's definitions read and serves as the
differential-testing oracle.
"""

from .engine import NaiveEngine, SeminaiveEngine, get_engine
from .indexes import RuleIndex, build_index, get_index
from .seminaive import (
    active_rules_for_negative,
    seminaive_closure,
    seminaive_consequence,
    seminaive_rounds,
    seminaive_step,
    supported_atoms,
)

__all__ = [
    "NaiveEngine",
    "SeminaiveEngine",
    "get_engine",
    "RuleIndex",
    "build_index",
    "get_index",
    "active_rules_for_negative",
    "seminaive_closure",
    "seminaive_consequence",
    "seminaive_rounds",
    "seminaive_step",
    "supported_atoms",
]
