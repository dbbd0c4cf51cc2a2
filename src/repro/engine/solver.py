"""High-level solving API.

:func:`solve` is the one-call entry point a deductive-database user needs:
give it a program (text or :class:`~repro.datalog.rules.Program`), pick a
semantics, and get back a :class:`Solution` that can be queried for atom
truth values and relation contents.  ``semantics="auto"`` computes the
well-founded model, by one of two routes: the minimum model of a
definite non-ground program is the relevant grounder's envelope, so it
is read straight off the grounder, with no ground program built; every
other program gets the alternating fixpoint, which on the default
configuration grounds straight into the compiled kernel's int IR.  On a
stratified program the well-founded model is total and is the perfect
model, so no class check is needed to pick a cheaper evaluator.

Evaluation choices travel in one validated
:class:`~repro.config.EngineConfig` (``config=``).  :func:`solve` itself
is a thin one-shot wrapper: it spins up a throwaway
:class:`repro.session.KnowledgeBase`-style evaluation
(:func:`solve_configured`) and returns its solution — long-lived callers
should hold a ``KnowledgeBase`` instead and let it maintain the model
incrementally across updates.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Optional, Union

from ..config import DEFAULT_ENGINE, DEFAULT_STRATEGY, EngineConfig, resolve_config
from ..datalog.atoms import Atom
from ..datalog.grounding import GroundingLimits, IncrementalGrounder
from ..datalog.parser import parse_program
from ..datalog.rules import Program, Rule
from ..datalog.terms import Constant
from ..exceptions import EvaluationError
from ..obs.recorder import Recorder, ensure_recorder
from ..resilience.budget import metered
from ..storage import DEFAULT_STORE, FactStore
from ..fixpoint.interpretations import PartialInterpretation, TruthValue
from ..core.alternating import alternating_fixpoint
from ..core.context import build_context
from ..core.stable import stable_consequences
from ..core.wellfounded import well_founded_model
from ..semantics.fitting import fitting_model
from ..semantics.horn import horn_minimum_model
from ..semantics.inflationary import inflationary_model
from ..semantics.stratified import stratified_model
from .view import ModelView

__all__ = [
    "Solution",
    "solve",
    "solve_configured",
    "resolve_auto_semantics",
]


class Solution:
    """The result of solving a program under one semantics.

    Every read — :meth:`relation`, :meth:`undefined_relation`,
    :meth:`value_of` (and so :func:`~repro.engine.query.ask`),
    :func:`~repro.engine.query.answers` and session pagination — is
    answered from one immutable per-predicate
    :class:`~repro.engine.view.ModelView`, :attr:`view`.  A one-shot solve
    builds it on first use, with one pass over the true atoms and one over
    the undefined ones.  A :class:`~repro.session.KnowledgeBase` epoch
    publishes a solution whose view is derived from the previous epoch's,
    and whose ``program``, ``base``, ``interpretation`` and ``context``
    are computed only when first read (see :mod:`repro.session`).

    ``context`` is the :class:`~repro.core.context.GroundContext` the model
    was computed over, or ``None`` when no ground program of objects was
    built (:func:`solve_configured`): the minimum model of a definite
    non-ground program is the grounder's envelope, whose atoms are then
    ``base`` and the true set, and a well-founded solve on the kernel
    grounds straight into the kernel's int IR, whose id → atom list is
    then ``base``.  With a store, ``program`` then holds the facts the
    solve read as fact rules, so an explainer can ground ``program``
    itself.

    Solutions are immutable and compare (and hash) by identity: two solves
    of one program give two unequal solutions.  Compare what they answer
    instead — ``interpretation``, ``relation(...)`` — since a value
    comparison would force an epoch's lazy fields.
    """

    def __init__(
        self,
        program: Program,
        semantics: str,
        interpretation: PartialInterpretation,
        base: frozenset[Atom],
        strategy: str = DEFAULT_STRATEGY,
        engine: str = DEFAULT_ENGINE,
        config: Optional[EngineConfig] = None,
        context: Optional[object] = None,
    ):
        self.__dict__.update(
            program=program,
            semantics=semantics,
            interpretation=interpretation,
            base=base,
            strategy=strategy,
            engine=engine,
            config=config,
            context=context,
        )

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"a Solution is immutable; cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"a Solution is immutable; cannot delete {name!r}")

    @cached_property
    def view(self) -> ModelView:
        """The per-predicate view every read is answered from."""
        interpretation = self.interpretation
        true_atoms = interpretation.true_atoms
        return ModelView.build(
            true_atoms, self.base - true_atoms - interpretation.false_atoms
        )

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def value_of(self, atom: Atom) -> TruthValue:
        """Truth value of a ground atom; atoms outside the base that are not
        EDB facts are false by the closed-world reading."""
        return self.view.predicate(atom.predicate).value_of(atom)

    def is_true(self, predicate: str, *values: object) -> bool:
        return self.value_of(_ground_atom(predicate, values)) is TruthValue.TRUE

    def is_false(self, predicate: str, *values: object) -> bool:
        return self.value_of(_ground_atom(predicate, values)) is TruthValue.FALSE

    def is_undefined(self, predicate: str, *values: object) -> bool:
        return self.value_of(_ground_atom(predicate, values)) is TruthValue.UNDEFINED

    def relation(self, predicate: str) -> set[tuple[object, ...]]:
        """The tuples for which *predicate* is true, with constants unwrapped."""
        return set(self.view.predicate(predicate).rows())

    def undefined_relation(self, predicate: str) -> set[tuple[object, ...]]:
        """Tuples of *predicate* left undefined by a partial semantics."""
        return set(self.view.predicate(predicate).rows(TruthValue.UNDEFINED))

    def true_atoms(self) -> frozenset[Atom]:
        return self.interpretation.true_atoms

    def false_atoms(self) -> frozenset[Atom]:
        return self.interpretation.false_atoms

    @property
    def is_total(self) -> bool:
        return self.interpretation.is_total_over(self.base)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Solution(semantics={self.semantics!r}, engine={self.engine!r})"


def _ground_atom(predicate: str, values: Iterable[object]) -> Atom:
    return Atom(predicate, tuple(Constant(v) for v in values))


def resolve_auto_semantics(program: Program) -> str:
    """The concrete semantics ``"auto"`` runs for *program*: ``"horn"`` for
    a definite non-ground program, whose minimum model is the relevant
    grounder's envelope, and ``"alternating-fixpoint"`` for every other.
    Both give the well-founded model.  ``is_definite`` stops at the first
    negative literal, and only a definite program pays for ``is_ground``;
    no dependency graph is built."""
    if program.is_definite and not program.is_ground:
        return "horn"
    return "alternating-fixpoint"


def solve_configured(
    program: Union[str, Program],
    config: EngineConfig,
    store: Optional[FactStore] = None,
    recorder: Optional[Recorder] = None,
) -> Solution:
    """Solve *program* under an already-resolved :class:`EngineConfig`.

    This is the config-native core of :func:`solve`, also used by
    :class:`repro.session.KnowledgeBase` for the semantics its incremental
    engine does not cover.

    EDB facts come from *store* (any :class:`~repro.storage.FactStore`,
    whose live indexes the grounder probes in place) or, without one, from
    the backend named by ``config.store`` (opened for this call and closed
    afterwards).  Either way the returned solution's ``program`` includes
    the facts as fact rules, as ``Program.union(store.as_program(),
    rules)`` would.

    ``auto`` is resolved by :func:`resolve_auto_semantics`, from the rules
    alone.  A definite non-ground program under the ``relevant`` grounder
    (``horn`` requested, or ``auto``) is solved from the grounder's
    envelope: the envelope-only run of
    :class:`~repro.datalog.grounding.IncrementalGrounder` derives its
    minimum model ``T_P↑ω(∅)`` with no rule instance, no ground context and
    no second fixpoint, so the solution's ``context`` is ``None``.  A
    requested ``horn`` on a ground program or under the naive grounder
    keeps the context path, since its base also holds underivable atoms;
    so do rules with negation under a requested ``horn``, which raises as
    before.

    A well-founded solve (``alternating-fixpoint`` or ``well-founded``,
    requested or run by ``auto``) on the ``kernel`` engine under the
    ``relevant`` grounder grounds straight into the kernel's int IR: a
    non-ground program through
    :meth:`~repro.datalog.grounding.IncrementalGrounder.ground_ir`, a
    ground one through :func:`repro.kernel.lower_program`, then
    :func:`repro.kernel.condense` and :func:`repro.kernel.evaluate_model`.
    No rule instance, no ground context and no compile pass is built, so
    the solution's ``context`` is ``None`` there too.  The monolithic
    engine, the naive grounder and every other semantics build a context.
    ``stratified`` runs only when requested, and ``horn`` off the envelope
    only when requested or under ``auto`` with the naive grounder.

    *recorder* (see :mod:`repro.obs`) instruments the whole call as one
    ``solve`` span, whose ``semantics`` attribute names the resolved
    semantics, and whose children are the pipeline phases (``ground``,
    then ``condense``/``evaluate``/``assemble`` when the kernel evaluates
    the well-founded model, a single ``evaluate`` span for the other
    evaluators, and nothing after ``ground`` on the envelope route); the
    default :class:`~repro.obs.NullRecorder` records nothing at near-zero
    cost.
    """
    if isinstance(program, str):
        program = parse_program(program)
    owned: Optional[FactStore] = None
    if store is None and config.store != DEFAULT_STORE:
        store = owned = config.create_store()
    recorder = ensure_recorder(recorder)
    # The owned-store close is the outermost finally: whatever escapes the
    # solve — including budget aborts — never leaks the backend connection.
    try:
        with metered(config.budget) as meter:
            try:
                return _solve_with_store(program, config, store, recorder)
            finally:
                if recorder.enabled and meter.active:
                    recorder.count("budget.steps", meter.steps)
                    recorder.count("budget.elapsed_ms", int(meter.elapsed() * 1000))
    finally:
        if owned is not None:
            owned.close()


def _solve_with_store(
    program: Program,
    config: EngineConfig,
    store: Optional[FactStore],
    recorder: Recorder,
) -> Solution:
    with recorder.span(
        "solve",
        semantics=config.semantics,
        engine=config.engine,
        strategy=config.strategy,
    ) as solve_span:
        semantics = config.semantics
        if semantics == "auto":
            # Store facts are definite and ground, so the rules decide.
            semantics = resolve_auto_semantics(program)

        limits = config.limits
        strategy = config.strategy
        engine = config.engine
        # Fitting's semantics does not take the unfounded-set step: an atom
        # whose positive body can never be derived stays undefined there,
        # while the relevant grounder drops its rules and makes it false.
        grounder = "naive" if semantics == "fitting" else config.grounder
        # The envelope is the model of exactly the programs auto sends to
        # it; under auto that is already decided.
        if (
            semantics == "horn"
            and grounder == "relevant"
            and (config.semantics == "auto" or resolve_auto_semantics(program) == "horn")
        ):
            solution = _solve_from_envelope(program, config, store, recorder)
            if recorder.enabled:
                solve_span.annotate(semantics=semantics, atoms=len(solution.base))
            return solution
        if (
            semantics in ("alternating-fixpoint", "well-founded")
            and engine == "kernel"
            and grounder == "relevant"
        ):
            solution, rules = _solve_into_kernel(program, config, semantics, store, recorder)
            if recorder.enabled:
                solve_span.annotate(semantics=semantics, atoms=len(solution.base), rules=rules)
            return solution
        if store is not None and (program.is_ground or grounder != "relevant"):
            # The naive grounder and the ground-program passthrough need
            # the facts materialised as fact rules up front.  Everything else
            # leaves the facts in the store: the streaming grounder probes its
            # live indexes and emits the fact rules into the context in one
            # pass — no second enumeration of the EDB.
            program = Program.union(store.as_program(), program)
            store = None
        probes_before = store.probes if store is not None else 0
        context = build_context(
            program,
            limits=limits,
            grounder=grounder,
            store=store,
            recorder=recorder,
        )
        if store is not None:
            # The grounded context records the store's facts as fact rules;
            # use it as the solution's program so downstream consumers
            # (stable-model re-solves, explainers) see the full program.
            program = context.program
            if recorder.enabled:
                recorder.count("store.candidate_probes", store.probes - probes_before)

        if semantics in ("alternating-fixpoint", "well-founded"):
            if semantics == "alternating-fixpoint":
                interpretation = alternating_fixpoint(
                    context, strategy=strategy, engine=engine, recorder=recorder
                ).model
            else:
                interpretation = well_founded_model(
                    context, strategy=strategy, engine=engine, recorder=recorder
                ).model
        elif semantics == "stratified":
            with recorder.span("evaluate", method="stratified"):
                interpretation = stratified_model(context, config=config).interpretation
        elif semantics == "horn":
            with recorder.span("evaluate", method="horn"):
                interpretation = horn_minimum_model(context, strategy=strategy).interpretation
        elif semantics == "fitting":
            with recorder.span("evaluate", method="fitting"):
                interpretation = fitting_model(context).model
        elif semantics == "inflationary":
            with recorder.span("evaluate", method="inflationary"):
                interpretation = inflationary_model(context).interpretation
        elif semantics == "stable":
            with recorder.span("evaluate", method="stable"):
                interpretation = stable_consequences(
                    context, limits=limits, strategy=strategy
                )
        else:  # pragma: no cover - guarded by EngineConfig validation
            raise EvaluationError(f"unhandled semantics {semantics!r}")

        solution = Solution(
            program=program,
            semantics=semantics,
            interpretation=interpretation,
            base=frozenset(context.base),
            strategy=strategy,
            engine=engine,
            config=config,
            context=context,
        )
    if recorder.enabled:
        solve_span.annotate(
            semantics=semantics, atoms=len(context.base), rules=len(context.rules)
        )
    return solution


def _solve_from_envelope(
    program: Program,
    config: EngineConfig,
    store: Optional[FactStore],
    recorder: Recorder,
) -> Solution:
    """A definite non-ground program's minimum model ``T_P↑ω(∅)``: the
    relevant grounder's envelope, with no rule instance built.

    The model is total over the envelope, so the base and the true set are
    the envelope and the false set is empty; there is no ground context.
    With a store, the solution's program holds the facts this run read as
    fact rules, so an explainer can ground it later without the store.
    """
    probes_before = store.probes if store is not None else 0
    with recorder.span("ground", grounder="relevant") as ground_span:
        grounder = IncrementalGrounder(program, config.limits, store=store, recorder=recorder)
        facts, atoms = grounder.envelope()
    if store is not None:
        program = _with_read_facts(program, facts)
    if recorder.enabled:
        ground_span.annotate(facts=len(facts), atoms=len(atoms))
        recorder.count("ground.facts", len(facts))
        recorder.count("ground.atoms", len(atoms))
        if store is not None:
            recorder.count("store.candidate_probes", store.probes - probes_before)
    base = frozenset(atoms)
    return Solution(
        program=program,
        semantics="horn",
        interpretation=PartialInterpretation(base),
        base=base,
        strategy=config.strategy,
        engine=config.engine,
        config=config,
    )


def _solve_into_kernel(
    program: Program,
    config: EngineConfig,
    semantics: str,
    store: Optional[FactStore],
    recorder: Recorder,
) -> tuple[Solution, int]:
    """The well-founded model of *program* by the kernel, grounded straight
    into its int IR, with the number of ground rules.

    A non-ground program goes through the relevant grounder's bindings
    (:meth:`~repro.datalog.grounding.IncrementalGrounder.ground_ir`), a
    ground one through its own rules (:func:`repro.kernel.lower_program`);
    either way no :class:`Rule` per instance and no ground context is
    built, and :func:`repro.kernel.condense` and
    :func:`repro.kernel.evaluate_model` do the rest.  The base is the id
    → atom list.  With a store, the solution's program holds the facts
    this run read as fact rules, so an explainer can ground it later
    without the store.
    """
    # Imported here, not at the top: a session never takes this route, and
    # `import repro` stays free of the kernel.
    from ..kernel import condense, evaluate_model, lower_program

    probes_before = store.probes if store is not None else 0
    with recorder.span("ground", grounder="relevant") as ground_span:
        if program.is_ground:
            if store is not None:
                program, store = Program.union(store.as_program(), program), None
            ir = lower_program(program)
        else:
            grounder = IncrementalGrounder(program, config.limits, store=store, recorder=recorder)
            ir = grounder.ground_ir()
    atoms = ir.atoms
    if store is not None:
        program = _with_read_facts(program, [atoms[atom_id] for atom_id in ir.fact_ids])
    rules = len(ir.heads)
    if recorder.enabled:
        facts = len(ir.fact_ids)
        ground_span.annotate(rules=rules, facts=facts, atoms=len(atoms))
        recorder.count("ground.rules", rules)
        recorder.count("ground.facts", facts)
        recorder.count("ground.atoms", len(atoms))
        if store is not None:
            recorder.count("store.candidate_probes", store.probes - probes_before)
    with recorder.span("condense") as condense_span:
        compiled = condense(ir, recorder)
    if recorder.enabled:
        condense_span.annotate(**compiled.statistics())
    interpretation = evaluate_model(compiled, recorder)
    solution = Solution(
        program=program,
        semantics=semantics,
        interpretation=interpretation,
        base=frozenset(atoms),
        strategy=config.strategy,
        engine=config.engine,
        config=config,
    )
    return solution, rules


def _with_read_facts(program: Program, facts: Iterable[Atom]) -> Program:
    """*program*'s non-fact rules after *facts*, the EDB a solve read from
    its store, as fact rules."""
    return Program(
        [*(Rule(fact) for fact in sorted(facts, key=str)), *program.non_fact_rules()]
    )


def solve(
    program: Union[str, Program],
    semantics: Optional[str] = None,
    limits: GroundingLimits | None = None,
    *,
    store: Optional[FactStore] = None,
    config: Optional[EngineConfig] = None,
    recorder: Optional[Recorder] = None,
) -> Solution:
    """Solve *program* under the requested semantics, one-shot.

    Parameters
    ----------
    program:
        Program text (parsed with the standard syntax) or a ready
        :class:`Program`.
    semantics:
        One of :data:`~repro.config.SUPPORTED_SEMANTICS` (default ``"auto"``).
        ``"stable"`` computes the *intersection* semantics (true in every
        stable model / false in every stable model) and raises when there
        is no stable model.  May be combined with ``config=``, overriding
        the config's semantics.
    limits:
        Optional :class:`~repro.datalog.grounding.GroundingLimits`,
        overriding the config's.
    store:
        Optional :class:`~repro.storage.FactStore` holding the EDB facts
        the rules read.  The grounder probes it in place, so repeated
        solves against the same store reuse its indexes.
    config:
        An :class:`EngineConfig` carrying every evaluation choice
        (semantics / strategy / engine / grounder / store / limits /
        budget), validated at construction.
    recorder:
        Optional :class:`~repro.obs.Recorder` tracing the solve (see
        :func:`solve_configured`).

    For repeated queries and evolving fact bases, prefer a stateful
    :class:`repro.session.KnowledgeBase` — it keeps the solved model warm
    and maintains it incrementally instead of re-solving from scratch.
    """
    resolved = resolve_config(config, semantics=semantics, limits=limits)
    return solve_configured(program, resolved, store=store, recorder=recorder)
