"""Unit tests for the high-level solve() API."""

import pytest

from repro.config import EngineConfig
from repro.datalog import Database, parse_program
from repro.datalog.atoms import atom
from repro.datalog.grounding import IncrementalGrounder
from repro.datalog.rules import Program
from repro.engine.solver import SUPPORTED_SEMANTICS, solve
from repro.exceptions import EvaluationError, NotStratifiedError
from repro.fixpoint.interpretations import TruthValue

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
