"""Program classification.

A small convenience layer that labels a program with the syntactic classes
the paper discusses — definite (Horn), stratified, locally stratified,
strict, strict in the IDB.  ``repro classify`` reports them, and the
semantics comparison uses them to decide which evaluators apply to a given
input.  ``solve`` does not classify: ``semantics="auto"`` computes the
well-founded model, which is total and equals the perfect model on every
stratified program.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..datalog.rules import Program
from .local_stratification import is_locally_stratified
from .stratification import is_stratified
from .strictness import analyse_strictness

__all__ = ["ProgramClassification", "classify"]


@dataclass(frozen=True)
class ProgramClassification:
    """Boolean feature vector describing a program's syntactic class."""

    is_definite: bool
    is_stratified: bool
    is_locally_stratified: bool
    is_strict: bool
    is_strict_in_idb: bool
    is_ground: bool
    is_propositional: bool

    @property
    def has_total_well_founded_model(self) -> bool:
        """Locally stratified programs are guaranteed a total WFS model;
        other programs may or may not have one."""
        return self.is_locally_stratified

    def summary(self) -> dict[str, bool]:
        return {
            "definite": self.is_definite,
            "stratified": self.is_stratified,
            "locally_stratified": self.is_locally_stratified,
            "strict": self.is_strict,
            "strict_in_idb": self.is_strict_in_idb,
            "ground": self.is_ground,
            "propositional": self.is_propositional,
        }


def classify(program: Program, check_local: bool = True) -> ProgramClassification:
    """Classify *program*.

    ``check_local`` can be disabled for very large programs, where grounding
    just to answer the local-stratification question would be wasteful; in
    that case the flag is reported as the (sound) value of plain
    stratification.
    """
    stratified = is_stratified(program)
    if program.is_definite:
        locally = True
    elif stratified:
        locally = True
    elif check_local:
        locally = is_locally_stratified(program)
    else:
        locally = False
    strictness = analyse_strictness(program, idb_only=False)
    strictness_idb = analyse_strictness(program, idb_only=True)
    return ProgramClassification(
        is_definite=program.is_definite,
        is_stratified=stratified,
        is_locally_stratified=locally,
        is_strict=strictness.is_strict,
        is_strict_in_idb=strictness_idb.is_strict_in_idb,
        is_ground=program.is_ground,
        is_propositional=program.is_propositional,
    )
