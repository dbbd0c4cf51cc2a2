"""Unit tests for the high-level solve() API."""

import sys

import pytest

from repro.analysis.stratification import is_stratified
from repro.config import DEFAULT_ENGINE, SUPPORTED_SEMANTICS, EngineConfig
from repro.core.alternating import alternating_fixpoint
from repro.core.context import build_context
from repro.datalog import parse_program
from repro.datalog.atoms import atom
from repro.datalog.grounding import GroundingLimits, IncrementalGrounder
from repro.datalog.rules import Program, Rule
from repro.engine import solver as solver_module
from repro.engine.solver import solve
from repro.exceptions import (
    BudgetExceeded,
    Cancelled,
    EvaluationError,
    GroundingError,
    GroundingTimeout,
    NotStratifiedError,
)
from repro.fixpoint.interpretations import TruthValue
from repro.obs import TraceRecorder
from repro.resilience import Budget, CancelToken
from repro.semantics.horn import horn_minimum_model
from repro.semantics.stratified import stratified_model
from repro.storage import MemoryStore

TC_TEXT = """
edge(1, 2). edge(2, 3). node(1). node(2). node(3).
tc(X, Y) :- edge(X, Y).
tc(X, Y) :- edge(X, Z), tc(Z, Y).
ntc(X, Y) :- node(X), node(Y), not tc(X, Y).
"""


def _max_rules_trips_at_the_context_paths_size(text: str, source: str) -> int:
    """Solve *text* with ``max_rules`` at the size of its ground context,
    then one below, its facts in the rules or (*source* ``"store"``) in a
    store: the first solve builds no context and records the facts it read
    as fact rules, the second raises as ``build_context`` does.  Returns
    the size."""
    program = parse_program(text)
    context = build_context(program)
    size = len(context.facts) + len(context.rules)
    store = None
    if source == "store":
        store = MemoryStore()
        store.load(program.fact_atoms())
        program = Program(program.non_fact_rules())
    fits = GroundingLimits(max_rules=size)
    solution = solve(program, limits=fits, store=store)
    assert solution.context is None
    if store is not None:
        # The facts the solve read, as fact rules in read order, then the
        # rules.
        assert list(solution.program) == [
            *(Rule(fact) for fact in store.facts()),
            *program.non_fact_rules(),
        ]
    build_context(program, limits=fits, store=store)
    over = GroundingLimits(max_rules=size - 1)
    with pytest.raises(GroundingError, match=f"limit of {size - 1} rules"):
        solve(program, limits=over, store=store)
    with pytest.raises(GroundingError, match=f"limit of {size - 1} rules"):
        build_context(program, limits=over, store=store)
    return size


def _tiny_deadline_raises_grounding_timeout(text: str) -> None:
    with pytest.raises(GroundingTimeout):
        solve(text, config=EngineConfig(budget=Budget(max_seconds=1e-9)))


def _cancelled_token_raises_cancelled_in_ground(text: str) -> None:
    token = CancelToken()
    token.cancel()
    with pytest.raises(Cancelled) as excinfo:
        solve(text, config=EngineConfig(budget=Budget(token=token)))
    assert excinfo.value.phase == "ground"


class TestSolve:
    def test_accepts_text_or_program(self):
        from_text = solve(TC_TEXT)
        from_program = solve(parse_program(TC_TEXT))
        assert from_text.relation("tc") == from_program.relation("tc")

    def test_auto_runs_the_envelope_or_the_kernel(self):
        # A definite non-ground program is solved from the envelope; every
        # other program, stratified and ground definite ones included, by
        # the alternating fixpoint.
        assert solve("e(1). t(X) :- e(X).").semantics == "horn"
        assert solve("a. b :- a.").semantics == "alternating-fixpoint"
        assert solve(TC_TEXT).semantics == "alternating-fixpoint"
        assert solve("wins(X) :- move(X, Y), not wins(Y). move(a, b).").semantics == (
            "alternating-fixpoint"
        )

    def test_relation_unwraps_constants(self):
        solution = solve(TC_TEXT)
        assert solution.relation("tc") == {(1, 2), (2, 3), (1, 3)}
        assert (3, 1) in solution.relation("ntc")

    def test_truth_value_queries(self):
        solution = solve(TC_TEXT)
        assert solution.is_true("tc", 1, 3)
        assert solution.is_false("tc", 3, 1)
        assert solution.value_of(atom("tc", 9, 9)) is TruthValue.FALSE

    def test_undefined_relation_for_partial_models(self):
        solution = solve("move(a, b). move(b, a). wins(X) :- move(X, Y), not wins(Y).")
        assert solution.undefined_relation("wins") == {("a",), ("b",)}
        assert not solution.is_total

    def test_database_attachment(self):
        rules = "tc(X, Y) :- edge(X, Y). tc(X, Y) :- edge(X, Z), tc(Z, Y)."
        store = MemoryStore()
        store.load({"edge": [(1, 2), (2, 3)]})
        solution = solve(rules, store=store)
        assert solution.is_true("tc", 1, 3)

    @pytest.mark.parametrize("entry", ["solve", "solve_configured"])
    def test_facts_arrive_only_through_a_store(self, entry):
        # EDB facts have one keyword: store=.
        arguments = (TC_TEXT,) if entry == "solve" else (TC_TEXT, EngineConfig())
        with pytest.raises(TypeError, match="database"):
            getattr(solver_module, entry)(*arguments, database=MemoryStore())

    def test_explicit_semantics_selection(self):
        for semantics in ("alternating-fixpoint", "well-founded", "stratified", "stable"):
            solution = solve(TC_TEXT, semantics=semantics)
            assert solution.is_true("ntc", 3, 1), semantics

    def test_fitting_and_inflationary_selectable(self):
        text = "p :- not q. q :- r."
        assert solve(text, semantics="fitting").is_true("p")
        assert solve(text, semantics="inflationary").is_true("p")

    def test_unknown_semantics_rejected(self):
        with pytest.raises(EvaluationError):
            solve("p.", semantics="magic")

    def test_stratified_semantics_on_unstratified_program_fails(self):
        with pytest.raises(NotStratifiedError):
            solve("p :- not p.", semantics="stratified")

    @pytest.mark.parametrize("source", ["text", "store"])
    def test_stratified_solve_grounds_once(self, monkeypatch, source):
        if source == "text":
            program, store = TC_TEXT, None
        else:
            parsed = parse_program(TC_TEXT)
            program = Program(rule for rule in parsed if not rule.is_fact)
            store = MemoryStore()
            store.load(rule.head for rule in parsed.facts())
        calls = []
        ground = IncrementalGrounder.ground

        def counting(self):
            calls.append(self)
            return ground(self)

        monkeypatch.setattr(IncrementalGrounder, "ground", counting)
        solution = solve(program, semantics="stratified", store=store)
        assert solution.semantics == "stratified"
        assert len(calls) == 1
        monkeypatch.undo()
        reference = solve(program, semantics="well-founded", store=store)
        assert solution.interpretation == reference.interpretation
        assert solution.base == reference.base

    def test_stratified_model_is_total_over_a_naive_base(self):
        # The perfect model is grounded like the solution's base: r(b) is
        # in the naive Herbrand base and false, not left undefined.
        solution = solve(
            "r(X) :- s(X), not u(X). s(a). t(b).",
            config=EngineConfig(semantics="stratified", grounder="naive"),
        )
        assert solution.is_total
        assert solution.is_false("r", "b")
        assert solution.is_true("r", "a")

    def test_stable_semantics_requires_a_stable_model(self):
        with pytest.raises(EvaluationError):
            solve("p :- not p.", semantics="stable")

    def test_stable_intersection_semantics(self):
        solution = solve("p :- q. p :- r. q :- not r. r :- not q.", semantics="stable")
        assert solution.is_true("p")
        assert solution.is_undefined("q")

    def test_supported_semantics_constant(self):
        assert "alternating-fixpoint" in SUPPORTED_SEMANTICS
        assert "auto" in SUPPORTED_SEMANTICS

    def test_is_total_flag(self):
        assert solve(TC_TEXT).is_total
        assert not solve("p :- not q. q :- not p.").is_total


class TestEngineSelection:
    GAME = "move(a, b). move(b, a). move(b, c). wins(X) :- move(X, Y), not wins(Y)."

    def test_engines_agree_on_wfs_semantics(self):
        for semantics in ("alternating-fixpoint", "well-founded"):
            kernel = solve(self.GAME, semantics, config=EngineConfig(engine="kernel"))
            monolithic = solve(self.GAME, semantics, config=EngineConfig(engine="monolithic"))
            assert kernel.interpretation == monolithic.interpretation
            assert kernel.engine == "kernel"
            assert monolithic.engine == "monolithic"

    def test_default_engine_is_kernel(self):
        assert DEFAULT_ENGINE == "kernel"
        assert solve(self.GAME).engine == "kernel"

    def test_unknown_engine_rejected(self):
        with pytest.raises(EvaluationError):
            solve(self.GAME, config=EngineConfig(engine="hyperdrive"))


class TestHornFromTheEnvelope:
    """Definite non-ground programs are solved from the relevant
    grounder's envelope: no rule instances, no context, and every limit
    and budget of the context path still applies."""

    #: A 6-cycle: 6 facts and 6 + 36 rule instances.
    CYCLE = " ".join(f"e({i}, {(i + 1) % 6})." for i in range(6)) + """
    t(X, Y) :- e(X, Y).
    t(X, Y) :- e(X, Z), t(Z, Y).
    """

    def test_route_and_model(self):
        solution = solve(self.CYCLE)
        assert solution.semantics == "horn" and solution.context is None
        assert solution.relation("t") == {(i, j) for i in range(6) for j in range(6)}
        assert solution.interpretation.false_atoms == frozenset()
        assert solution.base == solution.interpretation.true_atoms
        assert solution.is_false("t", 0, 9)

    def test_ground_programs_and_the_naive_grounder_keep_the_context(self):
        assert solve("a. b :- a.", semantics="horn").context is not None
        naive = solve(self.CYCLE, config=EngineConfig(grounder="naive"))
        assert naive.context is not None
        assert naive.interpretation.true_atoms == solve(self.CYCLE).interpretation.true_atoms

    def test_spans_and_counters(self):
        recorder = TraceRecorder()
        solve(self.CYCLE, recorder=recorder)
        root = recorder.find("solve")
        assert root.attributes["semantics"] == "horn"
        assert [span.name for span in root.children] == ["ground"]
        totals = recorder.counter_totals()
        assert totals["ground.rounds"] == 7
        assert totals["ground.delta_atoms"] == totals["ground.atoms"] == 6 + 36
        assert totals["ground.facts"] == 6

    @pytest.mark.parametrize("source", ["program", "store"])
    def test_max_rules_trips_at_the_context_paths_size(self, source):
        assert _max_rules_trips_at_the_context_paths_size(self.CYCLE, source) == 6 + 42

    def test_tiny_deadline_raises_grounding_timeout(self):
        _tiny_deadline_raises_grounding_timeout(self.CYCLE)

    def test_cancelled_token_raises_cancelled(self):
        _cancelled_token_raises_cancelled_in_ground(self.CYCLE)

    def test_requested_horn_on_negation_raises_as_before(self):
        # The message names the first ground instance with a negative
        # literal, as the context path always has; a rule whose instances
        # never fire cannot offend.
        with pytest.raises(EvaluationError) as excinfo:
            solve("q(1). q(2). r(2). p(X) :- q(X), not r(X).", semantics="horn")
        assert str(excinfo.value) == (
            "program is not definite (Horn): rule 'p(1) :- q(1), not r(1).' "
            "has a negative literal"
        )
        assert solve("p(X) :- q(X), not r(X). s(1).", semantics="horn").is_true("s", 1)


class TestWellFoundedIntoTheKernel:
    """A default well-founded solve grounds straight into the kernel's int
    IR: no rule instances, no context, no compile pass, and every limit,
    budget and counter of the context path still applies."""

    #: An even 4-cycle (all undefined) and a chain 4 -> 5 -> 6; the second
    #: rule is the first under other names, so it adds no instance.
    GAME = (
        " ".join(f"move({i}, {(i + 1) % 4})." for i in range(4))
        + " move(4, 5). move(5, 6)."
        + " wins(X) :- move(X, Y), not wins(Y)."
        + " wins(A) :- move(A, B), not wins(B)."
    )

    def test_route_and_model(self):
        program = parse_program(self.GAME)
        solution = solve(program)
        assert solution.semantics == "alternating-fixpoint" and solution.context is None
        assert solution.relation("wins") == {(5,)}
        assert solution.undefined_relation("wins") == {(0,), (1,), (2,), (3,)}
        assert solution.is_false("wins", 4) and solution.is_false("wins", 6)
        reference = alternating_fixpoint(program)
        assert solution.interpretation == reference.model
        assert solution.base == reference.context.base
        assert solution.program is program

    def test_ground_programs_take_the_route_too(self):
        text = "p :- not q. q :- not p. r :- s, not p. s. s."
        solution = solve(text, semantics="well-founded")
        assert solution.context is None
        reference = alternating_fixpoint(parse_program(text))
        assert solution.interpretation == reference.model
        assert solution.base == reference.context.base

    def test_other_engines_grounders_and_semantics_keep_the_context(self):
        monolithic = solve(self.GAME, config=EngineConfig(engine="monolithic"))
        naive = solve(self.GAME, config=EngineConfig(grounder="naive"))
        stratified = solve("q(1). p(X) :- q(X), not r(X).", semantics="stratified")
        assert stratified.semantics == "stratified"
        for solution in (monolithic, naive, stratified):
            assert solution.context is not None
        assert monolithic.interpretation == solve(self.GAME).interpretation

    def test_spans_and_counters_match_the_context_route(self):
        recorder = TraceRecorder()
        solve(self.GAME, recorder=recorder)
        root = recorder.find("solve")
        assert [span.name for span in root.children] == [
            "ground", "condense", "evaluate", "assemble"
        ]
        reference = TraceRecorder()
        alternating_fixpoint(parse_program(self.GAME), engine="kernel", recorder=reference)
        assert [span.name for span in reference.spans] == [
            "ground", "compile", "evaluate", "assemble"
        ]
        totals = recorder.counter_totals()
        expected = {
            name: value
            for name, value in reference.counter_totals().items()
            if name.startswith(("ground.", "kernel.", "components."))
        }
        assert {name: totals.get(name) for name in expected} == expected
        assert expected["ground.rules"] == 6 and expected["ground.rules_emitted"] == 12
        assert expected["ground.atoms"] == 13

    @pytest.mark.parametrize("source", ["program", "store"])
    def test_max_rules_trips_at_the_context_paths_size(self, source):
        assert _max_rules_trips_at_the_context_paths_size(self.GAME, source) == 6 + 6

    def test_tiny_deadline_raises_grounding_timeout(self):
        _tiny_deadline_raises_grounding_timeout(self.GAME)

    def test_tiny_deadline_trips_in_the_naive_grounder(self):
        # 2 rules x 7 constants squared: 98 instances, past the meter's
        # 64-tick stride.
        config = EngineConfig(grounder="naive", budget=Budget(max_seconds=1e-9))
        with pytest.raises(GroundingTimeout) as excinfo:
            solve(self.GAME, config=config)
        assert excinfo.value.phase == "ground"

    def test_cancelled_token_raises_cancelled_in_ground(self):
        _cancelled_token_raises_cancelled_in_ground(self.GAME)

    def test_step_cap_trips_as_on_the_context_route(self):
        budget = Budget(max_steps=2)
        with pytest.raises(BudgetExceeded) as route:
            solve(self.GAME, config=EngineConfig(budget=budget))
        with pytest.raises(BudgetExceeded) as reference:
            alternating_fixpoint(
                parse_program(self.GAME), config=EngineConfig(engine="kernel", budget=budget)
            )
        assert route.value.phase == reference.value.phase == "alternating"
        assert route.value.steps == reference.value.steps == 3


def _class_evaluators_raise(monkeypatch) -> None:
    """Make ``stratified_model``, ``horn_minimum_model`` and
    ``is_stratified`` raise wherever a ``repro`` module binds them."""
    originals = {id(function) for function in (stratified_model, horn_minimum_model, is_stratified)}

    def refuse(*args, **kwargs):
        raise AssertionError("auto ran a class evaluator or a class check")

    for name, module in list(sys.modules.items()):
        if name == "repro" or name.startswith("repro."):
            for attribute, value in list(vars(module).items()):
                if id(value) in originals:
                    monkeypatch.setattr(module, attribute, refuse)
    assert solver_module.stratified_model is solver_module.horn_minimum_model is refuse


def _perfect_model(context):
    """The model of *context*'s class: the minimum model of a definite
    program, the perfect model of any other stratified one."""
    return (horn_minimum_model if context.program.is_definite else stratified_model)(context)


class TestAutoRoutes:
    """``auto`` has two outcomes: the envelope for a definite non-ground
    program, the kernel for every other one — stratified and ground
    definite programs included, whose well-founded model is their
    perfect (minimum) model.  Every test here runs with the class
    evaluators and the stratification check rigged to raise."""

    GROUND_STRATIFIED = "q(1). q(2). r(2). p(1) :- q(1), not r(1). p(2) :- q(2), not r(2)."
    NON_GROUND_STRATIFIED = TC_TEXT
    #: d is underivable: false, and in the base.
    GROUND_DEFINITE = "a. b :- a. c :- b, d."
    KERNEL_ROUTES = {
        "ground-stratified": GROUND_STRATIFIED,
        "non-ground-stratified": NON_GROUND_STRATIFIED,
        "ground-definite": GROUND_DEFINITE,
    }

    @pytest.fixture(autouse=True)
    def _no_class_evaluators(self, monkeypatch):
        _class_evaluators_raise(monkeypatch)

    @pytest.mark.parametrize("text", KERNEL_ROUTES.values(), ids=KERNEL_ROUTES.keys())
    def test_kernel_route(self, text):
        program = parse_program(text)
        recorder = TraceRecorder()
        solution = solve(program, recorder=recorder)
        assert solution.semantics == "alternating-fixpoint" and solution.context is None
        root = recorder.find("solve")
        assert root.attributes["semantics"] == "alternating-fixpoint"
        assert [span.name for span in root.children] == [
            "ground", "condense", "evaluate", "assemble"
        ]
        assert recorder.find("classify") is None
        # The perfect model, over the context route's base (the test
        # module's own binding of the class evaluator is not rigged).
        context = build_context(program)
        perfect = _perfect_model(context)
        assert solution.interpretation == perfect.interpretation
        assert solution.base == context.base
        assert solution.is_total

    def test_definite_non_ground_program_takes_the_envelope(self):
        recorder = TraceRecorder()
        solution = solve(TestHornFromTheEnvelope.CYCLE, recorder=recorder)
        assert solution.semantics == "horn" and solution.context is None
        root = recorder.find("solve")
        assert root.attributes["semantics"] == "horn"
        assert [span.name for span in root.children] == ["ground"]

    @pytest.mark.parametrize("text", KERNEL_ROUTES.values(), ids=KERNEL_ROUTES.keys())
    def test_monolithic_engine_gives_the_same_model_with_a_context(self, text):
        monolithic = solve(text, config=EngineConfig(engine="monolithic"))
        assert monolithic.semantics == "alternating-fixpoint"
        assert monolithic.context is not None
        kernel = solve(text)
        assert monolithic.interpretation == kernel.interpretation
        assert monolithic.base == kernel.base

    @pytest.mark.parametrize("source", ["program", "store"])
    def test_max_rules_trips_at_the_context_paths_size(self, source):
        # 3 node and 2 edge facts; 2 + 1 tc and 9 ntc instances.
        size = _max_rules_trips_at_the_context_paths_size(self.NON_GROUND_STRATIFIED, source)
        assert size == 5 + 12

    def test_tiny_deadline_raises_grounding_timeout(self):
        _tiny_deadline_raises_grounding_timeout(self.NON_GROUND_STRATIFIED)

    def test_cancelled_token_raises_cancelled_in_ground(self):
        _cancelled_token_raises_cancelled_in_ground(self.NON_GROUND_STRATIFIED)
