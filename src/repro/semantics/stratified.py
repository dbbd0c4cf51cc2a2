"""Stratified (perfect-model) semantics (Section 2.3 of the paper).

For a stratified program the predicates split into strata so that negation
only refers to strictly lower strata; evaluating stratum by stratum — each
time taking the complement of the already-completed lower strata as the
negative facts — yields the *perfect model*.  On stratified programs the
well-founded model is total and coincides with the perfect model, which is
one of the agreement properties the test suite and benchmark E11 verify.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis.stratification import Stratification, stratify
from ..config import EngineConfig, merge_entry_config
from ..datalog.atoms import Atom
from ..datalog.grounding import GroundingLimits
from ..datalog.rules import Program
from ..evaluation.engine import get_engine
from ..fixpoint.interpretations import PartialInterpretation
from ..resilience.budget import metered
from ..core.context import GroundContext, build_context

__all__ = ["StratifiedModelResult", "stratified_model"]


@dataclass(frozen=True)
class StratifiedModelResult:
    """The perfect model of a stratified program plus evaluation metadata."""

    context: GroundContext
    stratification: Stratification
    true_atoms: frozenset[Atom]

    @property
    def interpretation(self) -> PartialInterpretation:
        """The perfect model as a *total* interpretation over the base."""
        return PartialInterpretation.total_from_true(self.true_atoms, self.context.base)

    @property
    def strata_count(self) -> int:
        return self.stratification.depth


def stratified_model(
    program: Program | GroundContext,
    limits: GroundingLimits | None = None,
    strategy: str | None = None,
    config: "EngineConfig | None" = None,
) -> StratifiedModelResult:
    """Evaluate a stratified program stratum by stratum.

    Each stratum is saturated by the evaluation engine: the rules of the
    stratum whose negative conditions are not contradicted become the
    active set (stratification guarantees negative body predicates live in
    strictly lower, already-completed strata or in the EDB, so "not yet
    derived" genuinely means false there), and the closure is seeded with
    everything true so far.  Raises
    :class:`~repro.exceptions.NotStratifiedError` when the program is not
    stratified (e.g. the win–move program of Example 5.2).  A *config*
    supplies ``strategy``/``limits`` together.  A pre-built
    :class:`GroundContext` is evaluated as it is, and stratified by its
    ground program.
    """
    strategy, _, limits, grounder, budget = merge_entry_config(
        config, strategy=strategy, limits=limits
    )
    with metered(budget):
        if isinstance(program, GroundContext):
            context = program
            stratification = stratify(context.program)
        else:
            stratification = stratify(program)
            context = build_context(program, limits=limits, grounder=grounder)
        engine = get_engine(strategy)

        # Atoms confirmed true so far (across completed strata).
        true_atoms: set[Atom] = set(context.facts)
        # Atoms of completed strata confirmed false.
        false_atoms: set[Atom] = set()

        for level in range(stratification.depth):
            predicates = stratification.predicates_at(level)
            active = bytearray(len(context.rules))
            for index, rule in enumerate(context.rules):
                if stratification.stratum_of(rule.head.predicate) != level:
                    continue
                if any(atom in true_atoms for atom in rule.negative_body):
                    continue
                active[index] = 1
            true_atoms = set(engine.closure(context, true_atoms, active))
            # Close the stratum: everything of its predicates not derived is false.
            for atom in context.base:
                if atom.predicate in predicates and atom not in true_atoms:
                    false_atoms.add(atom)

    return StratifiedModelResult(context, stratification, frozenset(true_atoms))
