"""Unit tests for the high-level solve() API."""

import pytest

from repro.config import EngineConfig
from repro.core.context import build_context
from repro.datalog import Database, parse_program
from repro.datalog.atoms import atom
from repro.datalog.grounding import GroundingLimits, IncrementalGrounder
from repro.datalog.rules import Program
from repro.engine.solver import SUPPORTED_SEMANTICS, solve
from repro.exceptions import (
    Cancelled,
    EvaluationError,
    GroundingError,
    GroundingTimeout,
    NotStratifiedError,
)
from repro.fixpoint.interpretations import TruthValue
from repro.obs import TraceRecorder
from repro.resilience import Budget, CancelToken
from repro.storage import MemoryStore

TC_TEXT = """
edge(1, 2). edge(2, 3). node(1). node(2). node(3).
tc(X, Y) :- edge(X, Y).
tc(X, Y) :- edge(X, Z), tc(Z, Y).
ntc(X, Y) :- node(X), node(Y), not tc(X, Y).
"""


class TestSolve:
    def test_accepts_text_or_program(self):
        from_text = solve(TC_TEXT)
        from_program = solve(parse_program(TC_TEXT))
        assert from_text.relation("tc") == from_program.relation("tc")

    def test_auto_picks_cheapest_semantics(self):
        assert solve("a. b :- a.").semantics == "horn"
        assert solve(TC_TEXT).semantics == "stratified"
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
        database = Database.from_tuples({"edge": [(1, 2), (2, 3)]})
        solution = solve(rules, database=database)
        assert solution.is_true("tc", 1, 3)

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

    @pytest.mark.parametrize("source", ["text", "database"])
    def test_stratified_solve_grounds_once(self, monkeypatch, source):
        if source == "text":
            program, database = TC_TEXT, None
        else:
            parsed = parse_program(TC_TEXT)
            program = Program(rule for rule in parsed if not rule.is_fact)
            database = Database.from_facts(rule.head for rule in parsed.facts())
        calls = []
        ground = IncrementalGrounder.ground

        def counting(self):
            calls.append(self)
            return ground(self)

        monkeypatch.setattr(IncrementalGrounder, "ground", counting)
        solution = solve(program, database=database)
        assert solution.semantics == "stratified"
        assert len(calls) == 1
        monkeypatch.undo()
        reference = solve(program, semantics="well-founded", database=database)
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
        from repro.engine.solver import DEFAULT_ENGINE

        assert DEFAULT_ENGINE == "kernel"
        assert solve(self.GAME).engine == "kernel"

    def test_unknown_engine_rejected(self):
        with pytest.raises(EvaluationError):
            solve(self.GAME, config=EngineConfig(engine="hyperdrive"))

    def test_engine_constant_exported(self):
        from repro.engine.solver import EVALUATION_ENGINES

        assert EVALUATION_ENGINES == ("kernel", "monolithic")


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
        assert solve("a. b :- a.").context is not None
        naive = solve(self.CYCLE, config=EngineConfig(grounder="naive"))
        assert naive.context is not None
        assert naive.interpretation.true_atoms == solve(self.CYCLE).interpretation.true_atoms

    def test_spans_and_counters(self):
        recorder = TraceRecorder()
        solve(self.CYCLE, recorder=recorder)
        root = recorder.find("solve")
        assert [span.name for span in root.children] == ["classify", "ground"]
        totals = recorder.counter_totals()
        assert totals["ground.rounds"] == 7
        assert totals["ground.delta_atoms"] == totals["ground.atoms"] == 6 + 36
        assert totals["ground.facts"] == 6

    @pytest.mark.parametrize("source", ["program", "store"])
    def test_max_rules_trips_at_the_context_paths_size(self, source):
        program = parse_program(self.CYCLE)
        context = build_context(program)
        size = len(context.facts) + len(context.rules)
        assert size == 6 + 42
        store = None
        if source == "store":
            store = MemoryStore()
            store.load(program.fact_atoms())
            program = Program(program.non_fact_rules())
        fits = GroundingLimits(max_rules=size)
        assert solve(program, limits=fits, store=store).context is None
        build_context(program, limits=fits, store=store)
        over = GroundingLimits(max_rules=size - 1)
        with pytest.raises(GroundingError, match=f"limit of {size - 1} rules"):
            solve(program, limits=over, store=store)
        with pytest.raises(GroundingError, match=f"limit of {size - 1} rules"):
            build_context(program, limits=over, store=store)

    def test_tiny_deadline_raises_grounding_timeout(self):
        with pytest.raises(GroundingTimeout):
            solve(self.CYCLE, config=EngineConfig(budget=Budget(max_seconds=1e-9)))
        with pytest.raises(GroundingTimeout):
            solve(self.CYCLE, limits=GroundingLimits(max_seconds=0))

    def test_cancelled_token_raises_cancelled(self):
        token = CancelToken()
        token.cancel()
        with pytest.raises(Cancelled) as excinfo:
            solve(self.CYCLE, config=EngineConfig(budget=Budget(token=token)))
        assert excinfo.value.phase == "ground"

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
