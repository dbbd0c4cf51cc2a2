"""Unit tests for the stateful KnowledgeBase session API."""

import pytest

from repro.config import EngineConfig
from repro.datalog import Database, parse_atom
from repro.datalog.terms import Variable
from repro.exceptions import EvaluationError, NotGroundError
from repro.fixpoint.interpretations import TruthValue
from repro.session import KnowledgeBase, ResultSet

WIN_MOVE_RULES = "wins(X) :- move(X, Y), not wins(Y)."

GAME_TEXT = """
move(a, b). move(b, a). move(b, c). move(c, d).
wins(X) :- move(X, Y), not wins(Y).
"""


class TestConstruction:
    def test_from_text_with_embedded_facts(self):
        kb = KnowledgeBase(GAME_TEXT)
        assert kb.fact_count() == 4
        assert len(kb.rules) == 1
        assert kb.is_true("wins", "c")

    def test_facts_mapping(self):
        kb = KnowledgeBase(WIN_MOVE_RULES, facts={"move": [("a", "b"), ("b", "a"), ("b", "c")]})
        assert sorted(kb.query("wins")) == [("b",)]

    def test_facts_database(self):
        database = Database.from_tuples({"move": [("a", "b"), ("b", "a"), ("b", "c")]})
        kb = KnowledgeBase(WIN_MOVE_RULES, facts=database)
        assert kb.is_true("wins", "b")

    def test_empty_knowledge_base_is_a_fact_store(self):
        kb = KnowledgeBase()
        assert kb.fact_count() == 0
        kb.assert_fact("color", "red")
        assert kb.is_true("color", "red")
        assert kb.is_false("color", "blue")

    def test_legacy_kwargs_warn_and_config_conflicts_raise(self):
        with pytest.warns(DeprecationWarning):
            kb = KnowledgeBase(GAME_TEXT, strategy="naive")
        assert kb.config.strategy == "naive"
        with pytest.raises(EvaluationError, match="config="):
            KnowledgeBase(GAME_TEXT, strategy="naive", config=EngineConfig())


class TestMutation:
    def test_assert_and_retract_report_changes(self):
        kb = KnowledgeBase(GAME_TEXT)
        assert kb.assert_fact("move", "d", "e") is True
        assert kb.assert_fact("move", "d", "e") is False
        assert kb.retract_fact("move", "d", "e") is True
        assert kb.retract_fact("move", "d", "e") is False

    def test_fact_spellings_are_equivalent(self):
        kb = KnowledgeBase()
        kb.assert_fact("edge(1, 2)")
        kb.assert_fact("edge", 2, 3)
        kb.assert_fact(parse_atom("edge(3, 4)"))
        assert kb.fact_count() == 3
        assert kb.retract_fact("edge", 1, 2)

    def test_non_ground_fact_rejected(self):
        kb = KnowledgeBase()
        with pytest.raises(NotGroundError):
            kb.assert_fact("edge(X, 2)")

    def test_model_refreshes_after_update(self):
        kb = KnowledgeBase(GAME_TEXT)
        assert kb.is_true("wins", "c")
        kb.assert_fact("move", "d", "e")  # d now beats e, so c loses
        assert kb.is_false("wins", "c")
        kb.retract_fact("move", "d", "e")
        assert kb.is_true("wins", "c")

    def test_load_returns_new_count(self):
        kb = KnowledgeBase(WIN_MOVE_RULES)
        assert kb.load({"move": [("a", "b"), ("b", "a")]}) == 2
        assert kb.load({"move": [("a", "b"), ("b", "c")]}) == 1


class TestBatch:
    def test_batch_defers_nothing_for_reads_but_groups_refresh(self):
        kb = KnowledgeBase(GAME_TEXT)
        kb.solution
        with kb.batch():
            kb.assert_fact("move", "d", "e")
            # Reads inside the batch see the mutation.
            assert kb.is_false("wins", "c")
        assert kb.is_false("wins", "c")

    def test_batch_rolls_back_on_exception(self):
        kb = KnowledgeBase(GAME_TEXT)
        before = sorted(map(str, kb.facts()))
        with pytest.raises(RuntimeError):
            with kb.batch():
                kb.assert_fact("move", "d", "e")
                kb.retract_fact("move", "a", "b")
                raise RuntimeError("boom")
        assert sorted(map(str, kb.facts())) == before
        assert kb.is_true("wins", "c")

    def test_nested_batches(self):
        kb = KnowledgeBase(GAME_TEXT)
        with kb.batch():
            kb.assert_fact("move", "d", "e")
            with pytest.raises(RuntimeError):
                with kb.batch():
                    kb.assert_fact("move", "e", "f")
                    raise RuntimeError("inner")
            # Inner rolled back, outer mutation survives.
        assert kb._edb.contains_atom(parse_atom("move(d, e)"))
        assert not kb._edb.contains_atom(parse_atom("move(e, f)"))

    def test_cancelling_mutations_skip_the_refresh(self):
        kb = KnowledgeBase(GAME_TEXT)
        solution = kb.solution
        refreshes = kb._update_count
        kb.assert_fact("move", "d", "e")
        kb.retract_fact("move", "d", "e")
        assert kb.solution is solution  # net delta empty: same snapshot
        assert kb._update_count == refreshes


class TestQueries:
    def test_query_returns_lazy_result_set(self):
        kb = KnowledgeBase(GAME_TEXT)
        wins = kb.query("wins")
        assert isinstance(wins, ResultSet)
        assert list(wins) == [("c",)]
        kb.assert_fact("move", "d", "e")
        # Same object, refreshed rows.
        assert list(wins) == [("b",), ("d",)]

    def test_query_patterns(self):
        kb = KnowledgeBase(GAME_TEXT)
        assert ("a", "b") in kb.query("move")
        assert list(kb.query("move", "b", None)) == [("b", "a"), ("b", "c")]
        x = Variable("X")
        assert list(kb.query("move", x, x)) == []
        kb.assert_fact("move", "e", "e")
        assert list(kb.query("move", x, x)) == [("e", "e")]

    def test_where_and_first(self):
        kb = KnowledgeBase(GAME_TEXT)
        moves = kb.query("move")
        assert moves.where("c", None).first() == ("c", "d")
        assert moves.where("zzz", None).first("none") == "none"
        assert len(moves) == 4
        assert moves.to_set() == {("a", "b"), ("b", "a"), ("b", "c"), ("c", "d")}

    def test_undefined_view(self):
        kb = KnowledgeBase("move(a, b). move(b, a). wins(X) :- move(X, Y), not wins(Y).")
        assert list(kb.query("wins")) == []
        assert list(kb.query("wins").undefined) == [("a",), ("b",)]

    def test_ask_and_answers(self):
        kb = KnowledgeBase(GAME_TEXT)
        assert kb.ask("wins(c)") is TruthValue.TRUE
        assert kb.ask("wins(d)") is TruthValue.FALSE
        bindings = sorted(answer["X"] for answer in kb.answers("wins(X)"))
        assert bindings == ["c"]

    def test_value_of_accepts_text(self):
        kb = KnowledgeBase(GAME_TEXT)
        assert kb.value_of("wins(c)") is TruthValue.TRUE

    def test_explain_tracks_updates(self):
        kb = KnowledgeBase(GAME_TEXT)
        assert kb.explain("wins(c)").verdict == "true"
        kb.assert_fact("move", "d", "e")
        assert kb.explain("wins(c)").verdict == "false"

    def test_explain_under_non_wfs_semantics_uses_wfs(self):
        kb = KnowledgeBase(
            "edge(1, 2). tc(X, Y) :- edge(X, Y).",
            config=EngineConfig(semantics="horn"),
        )
        explanation = kb.explain("tc(1, 2)")
        assert explanation.verdict == "true"


class TestModes:
    def test_ground_wfs_sessions_are_incremental(self):
        kb = KnowledgeBase("p :- not q. q :- r.", config=EngineConfig(semantics="well-founded"))
        assert kb.is_incremental

    def test_non_ground_rules_take_the_delta_path(self):
        kb = KnowledgeBase(GAME_TEXT, config=EngineConfig(semantics="well-founded"))
        assert kb.is_incremental
        kb.solution
        kb.assert_fact("move", "d", "e")
        kb.solution
        assert kb.last_update.mode == "delta"
        assert kb.last_update.rules_added == 1
        assert kb.statistics()["rules_added"] == 1

    def test_naive_grounder_falls_back_to_rebuild(self):
        kb = KnowledgeBase(
            GAME_TEXT, config=EngineConfig(semantics="well-founded", grounder="naive")
        )
        assert not kb.is_incremental
        kb.solution
        kb.assert_fact("move", "d", "e")
        kb.solution
        assert kb.last_update.mode == "rebuild"

    def test_monolithic_engine_falls_back(self):
        kb = KnowledgeBase(
            "p :- not q. q :- r.",
            config=EngineConfig(semantics="well-founded", engine="monolithic"),
        )
        assert not kb.is_incremental
        assert kb.is_true("p")

    def test_auto_resolution_is_visible(self):
        assert KnowledgeBase("a. b :- a.").semantics == "horn"
        assert KnowledgeBase(GAME_TEXT).semantics == "alternating-fixpoint"

    def test_other_semantics_still_work(self):
        for semantics in ("stratified", "stable", "fitting", "inflationary"):
            kb = KnowledgeBase(
                "p :- not q. q :- r. r.", config=EngineConfig(semantics=semantics)
            )
            assert kb.is_true("r"), semantics
            kb.retract_fact("r")
            assert kb.is_false("r") or kb.is_undefined("r"), semantics

    def test_statistics_shape(self):
        kb = KnowledgeBase("p :- not q. q :- r. r.", config=EngineConfig(semantics="well-founded"))
        kb.assert_fact("s")
        stats = kb.statistics()
        assert stats["incremental"] is True
        assert stats["rules"] == 2
        assert stats["facts"] == 2
        assert "components" in stats

    def test_failed_refresh_keeps_the_delta_queued(self):
        # q true turns the program into an odd loop with no stable model;
        # the raising refresh must not drop the pending change, and a later
        # compensating update must solve against the real EDB.
        kb = KnowledgeBase("p :- not p, q.", config=EngineConfig(semantics="stable"))
        assert kb.is_false("p")
        kb.assert_fact("q")
        with pytest.raises(EvaluationError):
            kb.solution
        with pytest.raises(EvaluationError):
            kb.solution  # still dirty: the read retries instead of serving stale state
        kb.assert_fact("r")
        kb.retract_fact("q")
        assert kb.is_true("r")
        assert kb.is_false("q")

    def test_solution_object_is_stable_between_updates(self):
        kb = KnowledgeBase(GAME_TEXT)
        first = kb.solution
        assert kb.solution is first
        kb.assert_fact("move", "d", "e")
        second = kb.solution
        assert second is not first
        # The old snapshot is immutable and still answers from its state.
        assert first.is_true("wins", "c")
        assert second.is_false("wins", "c")
