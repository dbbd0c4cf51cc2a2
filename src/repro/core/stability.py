"""The stability transformation (Section 4 of the paper).

Gelfond and Lifschitz defined stable models through a three-stage
transformation of the program by a candidate interpretation (the *reduct*).
Van Gelder's reformulation operates on sets of *negative* literals:

* ``S_P(Ĩ)`` — the eventual consequence mapping (Definition 4.2): all
  positive atoms derivable when ``Ĩ`` is held fixed;
* ``S̃_P(Ĩ) = conj(S_P(Ĩ)) = ¬·(H − S_P(Ĩ))`` — the *stability
  transformation* on negative sets.

``S_P`` is monotonic and therefore ``S̃_P`` is **antimonotonic** — the
property the paper points to as the heart of the intractability of stable
models.  A total model (represented by its negative literals) is stable
exactly when it is a fixpoint of ``S̃_P``.

This module also provides the classical three-stage Gelfond–Lifschitz
reduct so the two formulations can be tested against each other.
"""

from __future__ import annotations

from typing import AbstractSet

from ..datalog.atoms import Atom, Literal
from ..datalog.rules import Program, Rule
from ..config import DEFAULT_STRATEGY
from ..fixpoint.lattice import NegativeSet, conjugate_of_positive
from .context import GroundContext, build_context
from .eventual import eventual_consequence

__all__ = [
    "stability_transform",
    "gelfond_lifschitz_reduct",
    "reduct_minimum_model",
    "is_stable_set",
]


def stability_transform(
    context: GroundContext,
    negative: NegativeSet,
    strategy: str = DEFAULT_STRATEGY,
) -> NegativeSet:
    """``S̃_P(Ĩ)`` — Definition 4.2.

    Derive everything positive that follows from ``Ĩ`` (via ``S_P``), then
    return the conjugate: the atoms of the base *not* derived, as negative
    literals.
    """
    derived = eventual_consequence(context, negative, strategy=strategy)
    return conjugate_of_positive(derived, context.base)


def gelfond_lifschitz_reduct(program: Program, candidate: AbstractSet[Atom]) -> Program:
    """The three-stage reduct ``P^I`` of a ground program by a candidate set
    of true atoms (Section 4):

    1. delete every rule with a negative literal ``¬q`` whose atom ``q`` is
       in the candidate;
    2. delete the remaining negative literals from the surviving rules;
    3. the result is a Horn program (whose minimum model the stability check
       compares with the candidate).
    """
    program.require_ground()
    reduced: list[Rule] = []
    for rule in program:
        blocked = any(
            lit.negative and lit.atom in candidate for lit in rule.body
        )
        if blocked:
            continue
        positive_only = tuple(lit for lit in rule.body if lit.positive)
        reduced.append(Rule(rule.head, positive_only))
    return Program(reduced)


def reduct_minimum_model(program: Program, candidate: AbstractSet[Atom]) -> frozenset[Atom]:
    """The minimum model of the Gelfond–Lifschitz reduct ``P^I``."""
    reduct = gelfond_lifschitz_reduct(program, candidate)
    reduct_context = build_context(reduct)
    return eventual_consequence(reduct_context, NegativeSet.empty())


def is_stable_set(
    context: GroundContext,
    true_atoms: AbstractSet[Atom],
    strategy: str = DEFAULT_STRATEGY,
) -> bool:
    """Check stability of a candidate total model given by its true atoms.

    Using the paper's formulation: represent the candidate by its negative
    literals ``Ĩ = conj(I⁺)`` and test ``S̃_P(Ĩ) == Ĩ``.  (Equivalently, the
    minimum model of the Gelfond–Lifschitz reduct equals ``I⁺``; the test
    suite checks the two formulations agree.)
    """
    true_atoms = frozenset(true_atoms)
    if not true_atoms <= context.base:
        # Atoms outside the base can never be derived, so a candidate
        # asserting them is not stable.
        return False
    negative = conjugate_of_positive(true_atoms, context.base)
    return stability_transform(context, negative, strategy=strategy) == negative
