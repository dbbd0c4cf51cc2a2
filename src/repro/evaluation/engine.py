"""Evaluation strategy dispatch: ``"seminaive"`` versus ``"naive"``.

The operators in :mod:`repro.core` and the semantics modules take a
``strategy`` keyword and resolve it here.  Two engines implement the same
four primitives:

* ``step(context, positive, negative)``   — one ``C_P(I⁺, Ĩ)`` application;
* ``consequence(context, negative)``      — the least fixpoint ``S_P(Ĩ)``;
* ``closure(context, seed, active)``      — least set containing *seed*
  closed under the rules flagged *active* (negative conditions are encoded
  in the flags by the caller);
* ``supported(context, interpretation)``  — the externally supported atoms
  whose complement is the greatest unfounded set ``U_P(I)``.

:class:`SeminaiveEngine` is the indexed, counter-based implementation from
:mod:`repro.evaluation.seminaive` and is the default everywhere.
:class:`NaiveEngine` evaluates each primitive by literally re-scanning the
ground rules, exactly as the paper's definitions read; it is kept as the
differential-testing oracle, mirroring the existing ``naive_ground`` /
``relevant_ground`` split in the grounder.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, AbstractSet, Iterable, Sequence

from ..config import DEFAULT_STRATEGY, validate_strategy
from ..datalog.atoms import Atom
from ..fixpoint.lattice import NegativeSet
from .seminaive import (
    active_rules_for_negative,
    seminaive_closure,
    seminaive_consequence,
    seminaive_step,
    supported_atoms,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..core.context import GroundContext
    from ..fixpoint.interpretations import PartialInterpretation

__all__ = [
    "get_engine",
    "SeminaiveEngine",
    "NaiveEngine",
]

class SeminaiveEngine:
    """Indexed, delta-driven evaluation (the default)."""

    name = "seminaive"

    def step(
        self,
        context: "GroundContext",
        positive: AbstractSet[Atom],
        negative: NegativeSet,
    ) -> frozenset[Atom]:
        return seminaive_step(context, positive, negative)

    def consequence(self, context: "GroundContext", negative: NegativeSet) -> frozenset[Atom]:
        return seminaive_consequence(context, negative)

    def closure(
        self,
        context: "GroundContext",
        seed: Iterable[Atom],
        active: Sequence[int],
    ) -> frozenset[Atom]:
        return seminaive_closure(context, seed, active)

    def supported(
        self, context: "GroundContext", interpretation: "PartialInterpretation"
    ) -> frozenset[Atom]:
        return supported_atoms(context, interpretation)


class NaiveEngine:
    """Scan-everything evaluation, exactly as the definitions read."""

    name = "naive"

    def step(
        self,
        context: "GroundContext",
        positive: AbstractSet[Atom],
        negative: NegativeSet,
    ) -> frozenset[Atom]:
        derived: set[Atom] = set(context.facts)
        for rule in context.rules:
            if all(atom in positive for atom in rule.positive_body) and all(
                atom in negative for atom in rule.negative_body
            ):
                derived.add(rule.head)
        return frozenset(derived)

    def consequence(self, context: "GroundContext", negative: NegativeSet) -> frozenset[Atom]:
        current: frozenset[Atom] = frozenset()
        while True:
            following = self.step(context, current, negative)
            if following == current:
                return current
            current = following

    def closure(
        self,
        context: "GroundContext",
        seed: Iterable[Atom],
        active: Sequence[int],
    ) -> frozenset[Atom]:
        derived: set[Atom] = set(seed)
        changed = True
        while changed:
            changed = False
            for index, rule in enumerate(context.rules):
                if not active[index] or rule.head in derived:
                    continue
                if all(atom in derived for atom in rule.positive_body):
                    derived.add(rule.head)
                    changed = True
        return frozenset(derived)

    def supported(
        self, context: "GroundContext", interpretation: "PartialInterpretation"
    ) -> frozenset[Atom]:
        usable: list[int] = []
        for index, rule in enumerate(context.rules):
            killed = any(
                interpretation.is_false(atom) for atom in rule.positive_body
            ) or any(interpretation.is_true(atom) for atom in rule.negative_body)
            if not killed:
                usable.append(index)
        supported: set[Atom] = set(context.facts)
        changed = True
        while changed:
            changed = False
            for index in usable:
                rule = context.rules[index]
                if rule.head in supported:
                    continue
                if all(atom in supported for atom in rule.positive_body):
                    supported.add(rule.head)
                    changed = True
        return frozenset(supported)


_ENGINES = {
    "seminaive": SeminaiveEngine(),
    "naive": NaiveEngine(),
}


def get_engine(strategy: str = DEFAULT_STRATEGY):
    """The engine implementing *strategy* (shared stateless instances)."""
    return _ENGINES[validate_strategy(strategy)]
