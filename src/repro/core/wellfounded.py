"""Well-founded partial models via unfounded sets (Section 6 of the paper).

This is the *original* (Van Gelder–Ross–Schlipf) characterisation that the
alternating fixpoint is proved equivalent to (Theorem 7.8).  The library
implements it independently so the equivalence can be checked empirically —
the property-based tests and benchmark E6 do exactly that.

Definitions implemented here:

* :func:`greatest_unfounded_set` — ``U_P(I)``, the union of all unfounded
  sets of ``P`` with respect to a partial interpretation ``I``
  (Definition 6.1);
* :func:`well_founded_transform` — ``W_P(I) = T_P(I) ∪ ¬·U_P(I)``
  (Definition 6.2);
* :func:`well_founded_model` — the least fixpoint of ``W_P`` (the
  well-founded partial model), with its stage trace.

With ``engine="kernel"`` :func:`well_founded_model` builds its ground
context once, as the ``W_P`` iteration does, and hands it to
:func:`repro.kernel.kernel_model`; the stages collapse to
``(empty, model)``, and the kernel's per-component log goes to the
``recorder`` only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Iterable

from ..config import DEFAULT_STRATEGY, EngineConfig, merge_entry_config
from ..datalog.atoms import Atom
from ..datalog.grounding import GroundingLimits
from ..datalog.rules import Program
from ..evaluation.engine import get_engine
from ..fixpoint.interpretations import PartialInterpretation
from ..fixpoint.lattice import NegativeSet
from ..obs.recorder import NULL_RECORDER, Recorder
from ..resilience.budget import metered
from .consequence import tp_step
from .context import GroundContext, build_context

__all__ = [
    "WellFoundedResult",
    "greatest_unfounded_set",
    "well_founded_transform",
    "well_founded_model",
    "is_unfounded_set",
]


@dataclass(frozen=True)
class WellFoundedResult:
    """Outcome of the ``W_P`` iteration.

    ``stages`` records each intermediate partial interpretation, starting
    from the empty one; the last stage is the well-founded partial model.
    """

    context: GroundContext
    model: PartialInterpretation
    stages: tuple[PartialInterpretation, ...]

    @property
    def iterations(self) -> int:
        return len(self.stages) - 1

    @property
    def is_total(self) -> bool:
        return self.model.is_total_over(self.context.base)

    @property
    def undefined_atoms(self) -> frozenset[Atom]:
        return self.model.undefined_atoms(self.context.base)


def is_unfounded_set(
    context: GroundContext,
    candidate: AbstractSet[Atom],
    interpretation: PartialInterpretation,
) -> bool:
    """Check Definition 6.1 directly: is *candidate* an unfounded set of the
    program with respect to *interpretation*?

    Every atom of the candidate must have, for each of its rules, a witness
    of unusability: a body literal false in the interpretation, or a
    positive body atom inside the candidate.  Atoms with no rules at all
    satisfy the condition vacuously.
    """
    candidate = frozenset(candidate)
    for atom in candidate:
        for index in context.rules_by_head.get(atom, ()):
            rule = context.rules[index]
            witness = any(
                interpretation.is_false(body_atom) for body_atom in rule.positive_body
            ) or any(
                interpretation.is_true(body_atom) for body_atom in rule.negative_body
            ) or any(body_atom in candidate for body_atom in rule.positive_body)
            if not witness:
                return False
        # A fact rule for the atom means it can never be unfounded.
        if atom in context.facts:
            return False
    return True


def greatest_unfounded_set(
    context: GroundContext,
    interpretation: PartialInterpretation,
    universe: AbstractSet[Atom] | None = None,
    strategy: str = DEFAULT_STRATEGY,
) -> frozenset[Atom]:
    """``U_P(I)`` — the greatest unfounded set with respect to *I*.

    Computed as the complement (within the base) of the least set ``X`` of
    atoms that are *externally supported*: ``p ∈ X`` when some rule for
    ``p`` has no body literal false in ``I`` and all its positive body atoms
    already in ``X``.  Everything not externally supported is unfounded.
    The semi-naive strategy kills rules through the shared watch lists of
    :mod:`repro.evaluation` and propagates support with the same counters
    as ``S_P`` — the standard linear-time computation; the naive strategy
    re-scans the rules until the supported set stops growing.  Both are
    differentially tested against :func:`is_unfounded_set`.
    """
    base = frozenset(universe) if universe is not None else context.base
    supported = get_engine(strategy).supported(context, interpretation)
    return frozenset(base - supported)


def well_founded_transform(
    context: GroundContext,
    interpretation: PartialInterpretation,
    strategy: str = DEFAULT_STRATEGY,
) -> PartialInterpretation:
    """``W_P(I) = T_P(I) ∪ ¬·U_P(I)`` — Definition 6.2."""
    negative_part = NegativeSet(interpretation.false_atoms)
    positives = tp_step(context, interpretation.true_atoms, negative_part, strategy=strategy)
    negatives = greatest_unfounded_set(context, interpretation, strategy=strategy)
    return PartialInterpretation(positives, negatives)


def well_founded_model(
    program: Program | GroundContext,
    limits: GroundingLimits | None = None,
    full_base: bool = False,
    extra_atoms: Iterable[Atom] = (),
    strategy: str | None = None,
    engine: str | None = None,
    config: "EngineConfig | None" = None,
    recorder: Recorder | None = None,
) -> WellFoundedResult:
    """The well-founded partial model: the least fixpoint of ``W_P``.

    ``W_P`` is monotone in the information ordering of partial
    interpretations, so iterating from the empty interpretation converges;
    the stages are recorded for inspection and for the Figure 2 benchmark.

    With ``engine="kernel"`` the model is instead assembled component by
    component by the compiled flat-array evaluator
    (:func:`repro.kernel.kernel_model`); the resulting ``stages``
    collapse to ``(empty, model)`` since no global ``W_P`` sequence is run,
    and *strategy*, which selects the ``S_P`` scheme of the monolithic
    iteration, does not apply.  The default monolithic iteration remains
    the independent unfounded-set oracle of Theorem 7.8.  A *config*
    supplies ``strategy``/``engine``/``limits`` together.
    """
    strategy, engine, limits, grounder, budget = merge_entry_config(
        config, strategy=strategy, engine=engine, limits=limits, default_engine="monolithic"
    )
    recorder = recorder if recorder is not None else NULL_RECORDER
    with metered(budget) as meter:
        if isinstance(program, GroundContext):
            context = program
        else:
            context = build_context(
                program,
                limits=limits,
                full_base=full_base,
                extra_atoms=extra_atoms,
                grounder=grounder,
                recorder=recorder,
            )

        if engine == "kernel":
            from ..kernel import kernel_model  # deferred: import cycle

            # Inherits the meter ambiently — the budget governs the
            # kernel's component dispatch too.
            model = kernel_model(context, recorder)
            return WellFoundedResult(
                context=context, model=model, stages=(PartialInterpretation.empty(), model)
            )

        with recorder.span("evaluate", method="unfounded-sets") as evaluate_span:
            stages: list[PartialInterpretation] = [PartialInterpretation.empty()]
            current = stages[0]
            while True:
                meter.step("unfounded")
                following = well_founded_transform(context, current, strategy=strategy)
                stages.append(following)
                if (
                    following.true_atoms == current.true_atoms
                    and following.false_atoms == current.false_atoms
                ):
                    break
                current = following
    if recorder.enabled:
        evaluate_span.annotate(iterations=len(stages) - 1)
        recorder.count("unfounded.iterations", len(stages) - 1)
    return WellFoundedResult(context=context, model=stages[-1], stages=tuple(stages))
