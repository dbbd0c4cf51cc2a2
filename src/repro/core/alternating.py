"""The alternating fixpoint (Section 5 of the paper) — the core contribution.

The *alternating transformation* is the composition of the antimonotonic
stability transformation with itself::

    A_P(Ĩ) = S̃_P(S̃_P(Ĩ))            (Definition 5.1)

``A_P`` is monotonic, so its least fixpoint ``Ã = A_P↑∞(∅)`` exists.  With
``A⁺ = S_P(Ã)``, the *alternating fixpoint partial model* is ``A⁺ + Ã``
(Definition 5.2) — and by Theorem 7.8 it equals the well-founded partial
model.

The computation runs the single-step sequence ``Ĩ_{k+1} = S̃_P(Ĩ_k)`` from
``Ĩ_0 = ∅``: even stages form an ascending chain of *underestimates* of the
negative conclusions, odd stages a descending chain of *overestimates*
(Figure 2); the iteration stops when two consecutive even stages coincide.
The full trace — the rows of Table I — is retained on the result object so
the benchmark harness can print the paper's table verbatim.

With ``engine="kernel"`` :func:`alternating_fixpoint` builds its ground
context the same way and hands it to :func:`repro.kernel.kernel_model`,
which solves it component by component.  The result then holds the
model as one synthetic stage; how the components were solved goes to the
``recorder`` only (the ``components.*`` and ``kernel.*`` counters).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from ..config import DEFAULT_STRATEGY, EngineConfig, merge_entry_config
from ..datalog.atoms import Atom
from ..datalog.grounding import GroundingLimits
from ..datalog.rules import Program
from ..exceptions import EvaluationError
from ..fixpoint.interpretations import PartialInterpretation
from ..fixpoint.lattice import NegativeSet, conjugate_of_positive
from ..obs.recorder import NULL_RECORDER, Recorder
from ..resilience.budget import metered
from .context import GroundContext, build_context
from .eventual import eventual_consequence
from .stability import stability_transform

__all__ = [
    "AlternatingStage",
    "AlternatingFixpointResult",
    "alternating_transform",
    "alternating_fixpoint",
    "afp_model",
]

_MAX_STAGES = 10_000_000


@dataclass(frozen=True)
class AlternatingStage:
    """One row of the Table I trace.

    ``index`` is ``k``; ``negative`` is ``Ĩ_k`` and ``positive`` is
    ``S_P(Ĩ_k)``.  Even ``k`` are underestimates of the false atoms, odd
    ``k`` overestimates.
    """

    index: int
    negative: NegativeSet
    positive: frozenset[Atom]

    @property
    def is_underestimate(self) -> bool:
        return self.index % 2 == 0

    def describe(self) -> str:
        falses = ", ".join(sorted(f"not {a}" for a in self.negative))
        trues = ", ".join(sorted(str(a) for a in self.positive))
        return f"k={self.index}: Ĩ_k = {{{falses}}}  S_P(Ĩ_k) = {{{trues}}}"


@dataclass(frozen=True)
class AlternatingFixpointResult:
    """The outcome of an alternating fixpoint computation.

    Attributes
    ----------
    context:
        The ground evaluation context the fixpoint was computed over.
    negative_fixpoint:
        ``Ã`` — the least fixpoint of ``A_P`` (the well-founded false atoms).
    positive_fixpoint:
        ``A⁺ = S_P(Ã)`` (the well-founded true atoms).
    stages:
        The ``Ĩ_k`` / ``S_P(Ĩ_k)`` trace, i.e. the rows of Table I.  With
        ``keep_stages=False`` only the first and final rows are retained.
    stage_count:
        Number of rows the full trace would have; ``None`` when ``stages``
        already is the full trace.
    """

    context: GroundContext
    negative_fixpoint: NegativeSet
    positive_fixpoint: frozenset[Atom]
    stages: tuple[AlternatingStage, ...]
    stage_count: Optional[int] = None

    # ------------------------------------------------------------------ #
    # Model views
    # ------------------------------------------------------------------ #
    @property
    def model(self) -> PartialInterpretation:
        """The AFP partial model ``A⁺ + Ã`` as a partial interpretation."""
        return PartialInterpretation(self.positive_fixpoint, set(self.negative_fixpoint))

    @property
    def undefined_atoms(self) -> frozenset[Atom]:
        """Atoms of the base left undefined (``W?`` in the paper's notation)."""
        return (
            frozenset(self.context.base)
            - self.positive_fixpoint
            - frozenset(self.negative_fixpoint.atoms)
        )

    @property
    def is_total(self) -> bool:
        """True when the AFP model is a total model of the ground program —
        in which case it is also the unique stable model (Section 5)."""
        return not self.undefined_atoms

    @property
    def iterations(self) -> int:
        """Number of ``S̃_P`` applications performed."""
        if self.stage_count is not None:
            return self.stage_count - 1
        return len(self.stages) - 1

    def true_atoms(self) -> frozenset[Atom]:
        return self.positive_fixpoint

    def false_atoms(self) -> frozenset[Atom]:
        return frozenset(self.negative_fixpoint.atoms)

    def value_of(self, atom: Atom) -> str:
        """Three-valued verdict for a single atom (``"true"``, ``"false"``,
        or ``"undefined"``); atoms outside the base are false by the closed
        world assumption."""
        if atom in self.positive_fixpoint:
            return "true"
        if atom in self.negative_fixpoint or atom not in self.context.base:
            return "false"
        return "undefined"

    def table(self) -> list[tuple[int, frozenset[Atom], frozenset[Atom]]]:
        """The Table I rows as ``(k, atoms false in Ĩ_k, atoms in S_P(Ĩ_k))``."""
        return [
            (stage.index, frozenset(stage.negative.atoms), stage.positive)
            for stage in self.stages
        ]


def alternating_transform(
    context: GroundContext,
    negative: NegativeSet,
    strategy: str = DEFAULT_STRATEGY,
) -> NegativeSet:
    """``A_P(Ĩ) = S̃_P(S̃_P(Ĩ))`` — Definition 5.1 (monotonic)."""
    return stability_transform(
        context, stability_transform(context, negative, strategy=strategy), strategy=strategy
    )


def alternating_fixpoint(
    program: Program | GroundContext,
    limits: GroundingLimits | None = None,
    full_base: bool = False,
    extra_atoms: Iterable[Atom] = (),
    strategy: str | None = None,
    keep_stages: bool = True,
    engine: str | None = None,
    config: Optional[EngineConfig] = None,
    recorder: Recorder | None = None,
) -> AlternatingFixpointResult:
    """Compute the alternating fixpoint partial model of *program*.

    Accepts either a :class:`~repro.datalog.rules.Program` (which is
    grounded first) or a pre-built :class:`GroundContext`.  The inner
    ``S_P`` evaluations run under *strategy* (semi-naive by default).  The
    result carries the full iteration trace — the Table I rows — unless
    ``keep_stages=False``, which retains only the first and final rows
    (large runs need not hold every intermediate interpretation alive;
    ``stage_count`` still reports the true trace length).

    With ``engine="kernel"`` the model is computed component-wise by the
    compiled flat-array evaluator (:func:`repro.kernel.kernel_model`:
    SCC condensation of the atom dependency graph, cheapest-sound-method
    dispatch per component, dense-int IR) instead of by monolithic
    alternation; the result then carries a single synthetic stage holding
    the fixpoint, since no global ``Ĩ_k`` sequence exists, and the
    per-component log goes to *recorder* only.  The models are identical
    (Theorem 7.8 plus the splitting property of the well-founded
    semantics); the monolithic engine remains the differential oracle.
    The kernel has one counter-driven scheme, so *strategy* only applies
    to the monolithic engine.

    A *config* supplies ``strategy``/``engine``/``limits`` together; the
    per-field keywords are then rejected (except ``limits``, which may
    still override).  Called directly without either, the engine defaults
    to monolithic — this function *is* the monolithic oracle's home.
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

            # The kernel inherits the meter ambiently, so the budget
            # governs the component dispatch as well.
            model = kernel_model(context, recorder)
            negative = NegativeSet(model.false_atoms)
            return AlternatingFixpointResult(
                context=context,
                negative_fixpoint=negative,
                positive_fixpoint=model.true_atoms,
                stages=(AlternatingStage(0, negative, model.true_atoms),),
            )

        with recorder.span("evaluate", method="alternating") as evaluate_span:
            stages: list[AlternatingStage] = []
            current = NegativeSet.empty()
            positive = eventual_consequence(context, current, strategy=strategy)
            stages.append(AlternatingStage(0, current, positive))

            previous_even: Optional[NegativeSet] = current
            index = 0
            while True:
                index += 1
                meter.step("alternating")
                if index > _MAX_STAGES:
                    raise EvaluationError("alternating fixpoint did not converge")
                # S̃_P(Ĩ_k) is the conjugate of the S_P(Ĩ_k) already computed for the
                # previous stage, so each stage needs exactly one S_P evaluation.
                current = conjugate_of_positive(positive, context.base)
                positive = eventual_consequence(context, current, strategy=strategy)
                stage = AlternatingStage(index, current, positive)
                if keep_stages:
                    stages.append(stage)
                if index % 2 == 0:
                    # Even stages form an ascending chain, so unequal sizes decide
                    # inequality without comparing the sets element-wise.
                    if (
                        previous_even is not None
                        and len(current) == len(previous_even)
                        and current == previous_even
                    ):
                        break
                    previous_even = current

            if not keep_stages:
                stages.append(stage)
    if recorder.enabled:
        evaluate_span.annotate(stages=index)
        recorder.count("alternating.stages", index)
    return AlternatingFixpointResult(
        context=context,
        negative_fixpoint=current,
        positive_fixpoint=positive,
        stages=tuple(stages),
        stage_count=None if keep_stages else index + 1,
    )


def afp_model(program: Program, **kwargs) -> PartialInterpretation:
    """Convenience wrapper returning just the AFP partial model."""
    return alternating_fixpoint(program, **kwargs).model
