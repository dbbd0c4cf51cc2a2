"""Cross-semantics comparison harness.

The paper's motivation sections (2.1–2.5) compare how the different
semantics treat the same program — most famously the complement of
transitive closure.  This module evaluates a program under every semantics
that applies to it and reports the verdicts side by side; the E4 benchmark
and the ``semantics_zoo`` example are thin wrappers over it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..analysis.classification import ProgramClassification, classify
from ..datalog.atoms import Atom
from ..datalog.grounding import GroundingLimits
from ..datalog.rules import Program
from ..exceptions import EvaluationError, NotStratifiedError
from ..fixpoint.interpretations import PartialInterpretation
from ..core.alternating import alternating_fixpoint
from ..core.context import build_context
from ..core.stable import stable_models
from ..core.wellfounded import well_founded_model
from .fitting import fitting_model
from .horn import horn_minimum_model
from .inflationary import inflationary_model
from .stratified import stratified_model

__all__ = ["SemanticsComparison", "compare_semantics"]


@dataclass(frozen=True)
class SemanticsComparison:
    """Models of one program under every applicable semantics.

    Semantics that do not apply (e.g. stratified semantics of an
    unstratifiable program) are ``None``; ``stable`` holds the tuple of
    stable models (possibly empty), or ``None`` when enumeration was
    skipped.
    """

    program: Program
    classification: ProgramClassification
    alternating: PartialInterpretation
    well_founded: PartialInterpretation
    fitting: PartialInterpretation
    inflationary: PartialInterpretation
    stratified: Optional[PartialInterpretation]
    horn: Optional[PartialInterpretation]
    stable: Optional[tuple[frozenset[Atom], ...]]

    def verdicts_for(self, atom: Atom) -> dict[str, str]:
        """Truth value of one atom under each semantics, as strings."""

        def value(interpretation: Optional[PartialInterpretation]) -> str:
            if interpretation is None:
                return "n/a"
            return interpretation.value_of_atom(atom).value

        stable_verdict: str
        if self.stable is None:
            stable_verdict = "not computed"
        elif not self.stable:
            stable_verdict = "no stable model"
        elif all(atom in model for model in self.stable):
            stable_verdict = "true"
        elif all(atom not in model for model in self.stable):
            stable_verdict = "false"
        else:
            stable_verdict = "undefined"

        return {
            "alternating_fixpoint": value(self.alternating),
            "well_founded": value(self.well_founded),
            "fitting": value(self.fitting),
            "inflationary": value(self.inflationary),
            "stratified": value(self.stratified),
            "horn": value(self.horn),
            "stable": stable_verdict,
        }

    def agreement_afp_wfs(self) -> bool:
        """Theorem 7.8 on this program: AFP and WFS models coincide."""
        return (
            self.alternating.true_atoms == self.well_founded.true_atoms
            and self.alternating.false_atoms == self.well_founded.false_atoms
        )


def compare_semantics(
    program: Program,
    limits: GroundingLimits | None = None,
    enumerate_stable: bool = True,
    max_stable_atoms: int = 40,
) -> SemanticsComparison:
    """Evaluate *program* under every semantics that applies.

    ``enumerate_stable`` can be disabled (or is skipped automatically when
    the base exceeds *max_stable_atoms* atoms) because stable-model
    enumeration is worst-case exponential.
    """
    classification = classify(program)
    context = build_context(program, limits=limits)

    afp = alternating_fixpoint(context)
    wfs = well_founded_model(context)
    # Grounded naively, as the Fitting semantics needs (see fitting_model).
    fitting = fitting_model(program, limits=limits)
    inflationary = inflationary_model(context)

    stratified_interpretation: Optional[PartialInterpretation] = None
    try:
        stratified_interpretation = stratified_model(program, limits=limits).interpretation
    except NotStratifiedError:
        stratified_interpretation = None

    horn_interpretation: Optional[PartialInterpretation] = None
    if program.is_definite:
        horn_interpretation = horn_minimum_model(context).interpretation

    stable: Optional[tuple[frozenset[Atom], ...]] = None
    if enumerate_stable and len(context.base) <= max_stable_atoms:
        stable = tuple(model.true_atoms for model in stable_models(context, afp=afp))

    return SemanticsComparison(
        program=program,
        classification=classification,
        alternating=afp.model,
        well_founded=wfs.model,
        fitting=fitting.model,
        inflationary=inflationary.interpretation,
        stratified=stratified_interpretation,
        horn=horn_interpretation,
        stable=stable,
    )
