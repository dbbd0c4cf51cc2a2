"""Unit tests for the stateful KnowledgeBase session API."""

import pytest

import repro.core.alternating as alternating
from repro.analysis.stratification import is_stratified
from repro.config import EngineConfig
from repro.datalog import parse_atom
from repro.datalog.rules import Program
from repro.datalog.terms import Variable
from repro.delta import DeltaMaintainer
from repro.engine.solver import solve, solve_configured
from repro.exceptions import EvaluationError, NotGroundError, NotStratifiedError
from repro.fixpoint.interpretations import TruthValue
from repro.obs import TraceRecorder
from repro.session import KnowledgeBase, ResultSet
from repro.storage import MemoryStore, SqliteStore
from repro.workloads import social_graph_program

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
        store = MemoryStore()
        store.load({"move": [("a", "b"), ("b", "a"), ("b", "c")]})
        kb = KnowledgeBase(WIN_MOVE_RULES, facts=store)
        assert kb.is_true("wins", "b")

    def test_empty_knowledge_base_is_a_fact_store(self):
        kb = KnowledgeBase()
        assert kb.fact_count() == 0
        kb.assert_fact("color", "red")
        assert kb.is_true("color", "red")
        assert kb.is_false("color", "blue")

    @pytest.mark.parametrize("keyword", ["strategy", "engine", "grounder", "matcher"])
    def test_takes_no_per_field_keywords(self, keyword):
        with pytest.raises(TypeError, match=keyword):
            KnowledgeBase(GAME_TEXT, **{keyword: "naive"})


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
        assert kb.store.contains_atom(parse_atom("move(d, e)"))
        assert not kb.store.contains_atom(parse_atom("move(e, f)"))

    def test_cancelling_mutations_skip_the_refresh(self):
        kb = KnowledgeBase(GAME_TEXT)
        solution = kb.solution
        refreshes = kb._update_count
        kb.assert_fact("move", "d", "e")
        kb.retract_fact("move", "d", "e")
        assert kb.solution is solution  # net delta empty: same snapshot
        assert kb._update_count == refreshes

    def test_replayed_same_direction_event_still_refreshes(self):
        # A listener replay (or a rollback's inverse replay) can deliver
        # the same direction twice; the duplicate must not cancel the
        # change, so the next read still refreshes.
        kb = KnowledgeBase(GAME_TEXT)
        solution = kb.solution
        atom = parse_atom("move(d, e)")
        kb.store.add_atom(atom)
        kb._on_store_change(atom, True)  # the replayed event
        assert kb.solution is not solution
        assert kb.is_false("wins", "c")
        assert kb.last_update.mode == "delta"
        assert kb.last_update.changed == 1


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

    def test_unpatterned_reads_share_the_epochs_rows(self):
        kb = KnowledgeBase(GAME_TEXT)
        wins = kb.query("wins").to_set()
        assert kb.query("wins").to_set() is wins
        assert kb.query("wins").undefined.to_set() is kb.query("wins").undefined.to_set()
        assert kb.solution.relation("wins") == wins
        assert kb.solution.relation("wins") is not kb.solution.relation("wins")
        kb.assert_fact("move", "d", "e")
        assert kb.query("wins").to_set() == {("b",), ("d",)}
        assert wins == {("c",)}

    def test_pattern_reads_agree_with_the_unpatterned_ones(self):
        kb = KnowledgeBase(GAME_TEXT)
        moves = kb.query("move")
        from_b = moves.where("b", None)
        assert list(from_b) == [row for row in moves if row[0] == "b"]
        assert len(from_b) == 2 and bool(from_b)
        assert ("b", "c") in from_b and ("a", "b") not in from_b and ("z", "z") not in from_b
        assert from_b.to_set() == {("b", "a"), ("b", "c")}
        assert not moves.where("zzz", None)

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

    def test_explain_after_a_horn_rebuild(self):
        # The monolithic engine rebuilds through solve_configured, which
        # solves definite non-ground rules from the grounder's envelope:
        # the solution has no ground context, so the explainer grounds the
        # solution's program — the rules plus the facts that solve read —
        # and never the store, which later writes change.
        kb = KnowledgeBase(
            "tc(X, Y) :- edge(X, Y). tc(X, Y) :- edge(X, Z), tc(Z, Y).",
            store=SqliteStore(":memory:"),
            config=EngineConfig(engine="monolithic"),
        )
        try:
            kb.load({"edge": [("a", "b"), ("b", "c")]})
            assert not kb.is_incremental
            assert kb.solution.semantics == "horn" and kb.solution.context is None
            snapshot = kb.snapshot()
            derived = kb.explain("tc(a, c)")
            assert derived.verdict == "true"
            assert derived.derivation.depth() == 3
            assert kb.explain("tc(c, a)").verdict == "false"
            kb.assert_fact("edge", "c", "a")
            assert kb.solution.context is None
            assert kb.explain("tc(c, a)").verdict == "true"
            assert kb.explain("tc(a, d)").verdict == "false"
            # The earlier epoch explains from the facts its own solve read.
            assert snapshot.explain("tc(c, a)").verdict == "false"
            assert snapshot.explain("tc(a, c)").verdict == "true"
        finally:
            kb.close()

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
        tc = "e(1, 2). t(X, Y) :- e(X, Y)."
        stratified = "q(1). p(X) :- q(X), not r(X)."
        assert KnowledgeBase(tc).semantics == "horn"
        assert KnowledgeBase("a. b :- a.").semantics == "alternating-fixpoint"
        assert KnowledgeBase(stratified).semantics == "alternating-fixpoint"
        assert KnowledgeBase(GAME_TEXT).semantics == "alternating-fixpoint"
        # The session names what a one-shot solve of the same text runs.
        for text in (tc, "a. b :- a.", stratified, GAME_TEXT):
            assert KnowledgeBase(text).semantics == solve(text).semantics, text


class TestWellFoundedEquivalentRouting:
    """Stratified and Horn models are the well-founded model of their
    programs, so those sessions run on the incremental engine — under
    ``auto``, or with the class requested by name."""

    SOCIAL = social_graph_program(12, extra_edges=4, back_edges=3)
    HORN = "edge(1, 2). edge(2, 3). tc(X, Y) :- edge(X, Y). tc(X, Z) :- tc(X, Y), edge(Y, Z)."

    @staticmethod
    def _one_write_is_delta(kb, fact):
        assert kb.is_incremental
        kb.solution
        kb.assert_fact(fact)
        kb.solution
        assert kb.last_update.mode == "delta", kb.last_update.describe()

    def test_auto_stratified_session_is_incremental(self):
        kb = KnowledgeBase(self.SOCIAL, config=EngineConfig())
        assert is_stratified(kb.rules) and not kb.rules.is_definite
        assert kb.semantics == "alternating-fixpoint"
        self._one_write_is_delta(kb, "muted(3)")
        assert not kb.is_true("influencer", 3)

    def test_auto_horn_session_is_incremental(self):
        kb = KnowledgeBase(self.HORN, config=EngineConfig())
        assert kb.semantics == "horn"
        self._one_write_is_delta(kb, "edge(3, 4)")
        assert kb.is_true("tc", 1, 4)

    @pytest.mark.parametrize(
        "semantics, text, fact",
        [
            ("stratified", HORN, "edge(3, 4)"),
            ("stratified", "p(X) :- q(X), not r(X). q(1). q(2). r(2).", "r(1)"),
            ("horn", HORN, "edge(3, 4)"),
        ],
    )
    def test_requested_class_met_is_incremental(self, semantics, text, fact):
        kb = KnowledgeBase(text, config=EngineConfig(semantics=semantics))
        assert kb.semantics == semantics
        self._one_write_is_delta(kb, fact)
        program = Program.union(kb.store.as_program(), kb.rules)
        scratch = solve_configured(program, kb.config)
        assert kb.solution.interpretation.true_atoms == scratch.interpretation.true_atoms
        assert kb.solution.program == program

    def test_stratified_on_unstratified_rules_still_raises(self):
        kb = KnowledgeBase("p :- not q. q :- not p.", config=EngineConfig(semantics="stratified"))
        assert not kb.is_incremental
        with pytest.raises(NotStratifiedError):
            kb.solution

    def test_horn_on_rules_with_negation_still_raises(self):
        kb = KnowledgeBase("p :- not q.", config=EngineConfig(semantics="horn"))
        assert not kb.is_incremental
        with pytest.raises(EvaluationError):
            kb.solution

    def test_snapshot_explains_from_the_maintained_state(self, monkeypatch):
        kb = KnowledgeBase(self.SOCIAL, config=EngineConfig())
        kb.assert_fact("muted(3)")
        snapshot = kb.snapshot()
        # No second solve: the explanation wraps the session's own model.
        monkeypatch.setattr(
            alternating, "alternating_fixpoint", lambda *a, **k: pytest.fail("re-solved")
        )
        assert snapshot.explain("influencer(3)").verdict == "false"
        assert snapshot.explain("influencer(4)").verdict == "true"
        assert kb.explain("reach(5)").verdict == "true"

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

    def test_statistics_after_a_delta_match_a_fresh_session(self):
        # Asserting s re-solves the {r, s} loop and leaves p to the
        # counting pass: every figure but the refresh history must equal
        # a session solved from scratch over the same facts.
        rules = "p :- q, not r. r :- not s. s :- not r."
        kb = KnowledgeBase(rules)
        kb.assert_fact("q")
        kb.solution
        kb.assert_fact("s")
        assert kb.is_true("p")
        recorder = TraceRecorder()
        fresh = KnowledgeBase(
            rules, facts=[parse_atom("q"), parse_atom("s")], recorder=recorder
        )
        history = {
            "refreshes",
            "refresh_total_s",
            "refresh_mean_s",
            "refresh_modes",
            "last_mode",
            "last_update",
        }
        stats, expected = kb.statistics(), fresh.statistics()
        assert stats.keys() == expected.keys()
        assert {key: stats[key] for key in stats.keys() - history} == {
            key: expected[key] for key in expected.keys() - history
        }
        totals = recorder.counter_totals()
        assert {
            name: count for name, count in totals.items() if name.startswith("components.")
        } == {"components.horn": 2, "components.alternating": 1}

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

    def test_failed_incremental_refresh_keeps_the_delta_queued(self, monkeypatch):
        kb = KnowledgeBase("a. b :- a, not c.")
        assert kb.is_incremental
        assert kb.is_true("b")
        kb.assert_fact("c")

        def boom(*args, **kwargs):
            raise RuntimeError("maintenance pass died")

        monkeypatch.setattr(DeltaMaintainer, "apply", boom)
        with pytest.raises(RuntimeError):
            kb.solution
        monkeypatch.undo()
        # The session still holds the change; the engine dropped its torn
        # state, so the retried read solves the current EDB in full.
        assert kb.is_false("b")
        assert kb.last_update.mode == "initial"

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
