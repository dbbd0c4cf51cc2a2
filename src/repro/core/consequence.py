"""Immediate consequence mappings (Definitions 3.6 and 3.7).

The two-argument *immediate consequence mapping* ``C_P(I⁺, Ĩ)`` returns the
heads of rules whose positive body atoms are all in ``I⁺`` and whose
negative body literals are all in ``Ĩ``.  From it the paper derives:

* the Horn transformation ``T_P(I⁺) = C_P(I⁺, ∅)`` (van Emden–Kowalski);
* the non-monotonic Apt–van Emden extension ``C_P(I⁺, conj(I⁺))``;
* the *inflationary* transformation of IFP, ``C_P(I⁺, ¬·I⁺) ∪ I⁺``;
* the monotone ``T_P(I)`` of Definition 3.7 used by the well-founded
  transformation ``W_P``; and
* the parametrised ``T_{P∪Ĩ}`` of Definition 4.1, whose least fixpoint is
  the eventual consequence ``S_P`` (computed in :mod:`repro.core.eventual`).

All of these take a :class:`~repro.core.context.GroundContext` and a
``strategy`` selecting the evaluation engine: ``"seminaive"`` (default)
applies one step through the per-context rule index of
:mod:`repro.evaluation`, ``"naive"`` re-scans every rule exactly as the
definitions read and serves as the differential-testing oracle.
"""

from __future__ import annotations

from typing import AbstractSet

from ..datalog.atoms import Atom
from ..config import DEFAULT_STRATEGY
from ..evaluation.engine import get_engine
from ..fixpoint.lattice import NegativeSet, conjugate_of_positive
from .context import GroundContext

__all__ = [
    "immediate_consequence",
    "horn_step",
    "tp_step",
    "inflationary_step",
    "naive_negation_step",
]

_EMPTY_NEGATIVE = NegativeSet.empty()


def immediate_consequence(
    context: GroundContext,
    positive: AbstractSet[Atom],
    negative: NegativeSet,
    strategy: str = DEFAULT_STRATEGY,
) -> frozenset[Atom]:
    """``C_P(I⁺, Ĩ)`` — Definition 3.6.

    Facts always belong to the result (their body is empty).  The combined
    argument is *not* required to be consistent: as the paper notes,
    overestimates of negative facts may coexist with the positive atoms they
    negate.
    """
    return get_engine(strategy).step(context, positive, negative)


def horn_step(
    context: GroundContext,
    positive: AbstractSet[Atom],
    strategy: str = DEFAULT_STRATEGY,
) -> frozenset[Atom]:
    """The Horn-clause immediate consequence ``T_P(I⁺) = C_P(I⁺, ∅)``.

    Only rules without negative body literals can fire (an empty negative
    context justifies no negative literal).  This is the transformation
    whose least fixpoint is the minimum model of a definite program (van
    Emden–Kowalski).
    """
    return get_engine(strategy).step(context, positive, _EMPTY_NEGATIVE)


def tp_step(
    context: GroundContext,
    positive: AbstractSet[Atom],
    negative: NegativeSet,
    strategy: str = DEFAULT_STRATEGY,
) -> frozenset[Atom]:
    """``T_P(I)`` of Definition 3.7 for ``I = I⁺ + Ĩ``.

    Identical to :func:`immediate_consequence`; kept as a separate name so
    call sites read like the paper (``T_P`` produces only positive literals,
    negative conclusions are drawn by a separate mechanism such as ``U_P``).
    """
    return immediate_consequence(context, positive, negative, strategy=strategy)


def inflationary_step(
    context: GroundContext,
    positive: AbstractSet[Atom],
    strategy: str = DEFAULT_STRATEGY,
) -> frozenset[Atom]:
    """One round of the inflationary (IFP) transformation.

    ``T_P(I⁺) = C_P(I⁺, conj(I⁺)) ∪ I⁺``: a negative literal is treated as
    true when its atom has not been concluded *yet*, and previously drawn
    conclusions are kept forever (Section 3.4).  The fixpoint of this
    operator is the inflationary semantics compared against in Example 2.2.
    """
    negative = conjugate_of_positive(positive, context.base)
    return immediate_consequence(context, positive, negative, strategy=strategy) | frozenset(
        positive
    )


def naive_negation_step(
    context: GroundContext,
    positive: AbstractSet[Atom],
    strategy: str = DEFAULT_STRATEGY,
) -> frozenset[Atom]:
    """The non-inflationary, non-monotonic extension ``C_P(I⁺, conj(I⁺))``.

    Included because the paper (Section 3.4) discusses it as the variant
    studied by Kolaitis and Papadimitriou that "frequently fails" to be
    increasing; the tests demonstrate exactly that failure.
    """
    negative = conjugate_of_positive(positive, context.base)
    return immediate_consequence(context, positive, negative, strategy=strategy)
