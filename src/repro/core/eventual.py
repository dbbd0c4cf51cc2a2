"""The eventual consequence mapping ``S_P`` (Definition 4.2).

``S_P(Ĩ)`` is the least fixpoint of ``T_{P∪Ĩ}``: the set of positive facts
eventually derivable when the negative literals in ``Ĩ`` are treated as
additional EDB facts (Figure 3 of the paper).  It is the workhorse of both
the stability transformation and the alternating fixpoint, so two
strategies are provided through :mod:`repro.evaluation`:

* ``"naive"`` — repeated application of ``T_{P∪Ĩ}`` until convergence,
  exactly as the definition reads (also exposed as
  :func:`eventual_consequence_naive`); and
* ``"seminaive"`` (default) — the indexed delta propagation of
  :mod:`repro.evaluation.seminaive` (Dowling–Gallier style): every rule
  keeps a count of positive body atoms not yet derived, and a rule whose
  negative body is contained in ``Ĩ`` fires in O(1) when its last positive
  body atom is derived.

The two are differentially tested against each other; the fast version is
the default everywhere.
"""

from __future__ import annotations

from ..datalog.atoms import Atom
from ..config import DEFAULT_STRATEGY
from ..evaluation.engine import get_engine
from ..fixpoint.lattice import NegativeSet
from ..fixpoint.operators import FixpointTrace, iterate_to_fixpoint
from .context import GroundContext

__all__ = [
    "eventual_consequence",
    "eventual_consequence_naive",
    "eventual_consequence_trace",
    "minimum_model",
]


def eventual_consequence(
    context: GroundContext,
    negative: NegativeSet,
    strategy: str = DEFAULT_STRATEGY,
) -> frozenset[Atom]:
    """``S_P(Ĩ)`` — all positive atoms derivable with ``Ĩ`` held fixed.

    The default semi-naive strategy costs O(total body size) per call.
    """
    return get_engine(strategy).consequence(context, negative)


def eventual_consequence_naive(context: GroundContext, negative: NegativeSet) -> frozenset[Atom]:
    """Reference implementation of ``S_P(Ĩ)`` by naive iteration of
    ``T_{P∪Ĩ}`` (Definition 4.1) to its least fixpoint."""
    return eventual_consequence_trace(context, negative).fixpoint


def eventual_consequence_trace(
    context: GroundContext, negative: NegativeSet
) -> FixpointTrace[frozenset[Atom]]:
    """The stage-by-stage trace of the ``T_{P∪Ĩ}`` iteration.

    Useful for inspecting derivation rounds; the closure ordinal is at most
    ω (Section 4), i.e. finite here.
    """

    def step(positive: frozenset[Atom]) -> frozenset[Atom]:
        derived: set[Atom] = set(context.facts)
        for rule in context.rules:
            if all(atom in negative for atom in rule.negative_body) and all(
                atom in positive for atom in rule.positive_body
            ):
                derived.add(rule.head)
        return frozenset(derived)

    return iterate_to_fixpoint(step, frozenset())


def minimum_model(
    context: GroundContext, strategy: str = DEFAULT_STRATEGY
) -> frozenset[Atom]:
    """The minimum model of a definite (Horn) ground program.

    For Horn programs ``S_P`` does not depend on the negative argument, so
    the minimum model is simply ``S_P(∅)``; rules with negative literals are
    ignored (they cannot fire with an empty negative set), which matches the
    Horn restriction the callers enforce.
    """
    return eventual_consequence(context, NegativeSet.empty(), strategy=strategy)
