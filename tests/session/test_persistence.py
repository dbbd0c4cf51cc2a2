"""Persistent knowledge bases: ``KnowledgeBase.open`` / ``close`` and the
store-event plumbing behind the session layer."""

import io

import pytest

from repro.config import EngineConfig
from repro.datalog.parser import parse_atom, parse_program
from repro.exceptions import EvaluationError
from repro.session import KnowledgeBase, run_repl
from repro.storage import MemoryStore, SqliteStore

GAME = "wins(X) :- move(X, Y), not wins(Y)."
MOVES = {"move": [("a", "b"), ("b", "a"), ("b", "c")]}


class TestOpenClose:
    def test_open_mutate_close_reopen_round_trip(self, tmp_path):
        path = tmp_path / "kb.db"
        with KnowledgeBase.open(path, GAME) as kb:
            kb.load(MOVES)
            kb.assert_fact("move", "c", "d")
            before_facts = sorted(str(a) for a in kb.facts())
            before_wins = sorted(kb.query("wins"))
            before_undef = sorted(kb.query("wins").undefined)
        with KnowledgeBase.open(path, GAME) as reopened:
            assert sorted(str(a) for a in reopened.facts()) == before_facts
            assert sorted(reopened.query("wins")) == before_wins
            assert sorted(reopened.query("wins").undefined) == before_undef

    def test_retractions_are_durable(self, tmp_path):
        path = tmp_path / "kb.db"
        with KnowledgeBase.open(path, GAME) as kb:
            kb.load(MOVES)
            kb.retract_fact("move", "b", "c")
        with KnowledgeBase.open(path, GAME) as reopened:
            assert reopened.fact_count() == 2
            assert not reopened.store.contains("move", "b", "c")

    def test_aborted_batch_never_reaches_disk(self, tmp_path):
        path = tmp_path / "kb.db"
        with KnowledgeBase.open(path, GAME) as kb:
            kb.load(MOVES)
            with pytest.raises(RuntimeError):
                with kb.batch():
                    kb.assert_fact("move", "x", "y")
                    raise RuntimeError("abort")
            assert not kb.store.contains("move", "x", "y")
        with KnowledgeBase.open(path, GAME) as reopened:
            assert reopened.fact_count() == 3

    def test_close_is_idempotent_and_context_managed(self, tmp_path):
        kb = KnowledgeBase.open(tmp_path / "kb.db", GAME)
        kb.close()
        kb.close()

    def test_caller_supplied_store_stays_open_after_close(self):
        shared = SqliteStore(":memory:")
        kb = KnowledgeBase(GAME, store=shared)
        kb.assert_fact("move", 1, 2)
        kb.close()
        # The instance belongs to the caller: still usable afterwards.
        assert shared.contains("move", 1, 2)
        shared.add("move", 2, 3)
        shared.close()

    def test_opening_a_corrupt_file_raises_storage_error(self, tmp_path):
        from repro.exceptions import StorageError

        bogus = tmp_path / "not-a-database.db"
        bogus.write_text("definitely not sqlite", encoding="utf-8")
        with pytest.raises(StorageError):
            KnowledgeBase.open(bogus, GAME)

    def test_store_spec_string_accepted(self, tmp_path):
        path = tmp_path / "spec.db"
        with KnowledgeBase(GAME, store=f"sqlite:{path}") as kb:
            kb.assert_fact("move", 1, 2)
        with KnowledgeBase(GAME, store=f"sqlite:{path}") as kb:
            assert kb.fact_count() == 1

    def test_config_store_spec_backs_the_session(self, tmp_path):
        path = tmp_path / "config.db"
        config = EngineConfig(store=f"sqlite:{path}")
        with KnowledgeBase(GAME, config=config) as kb:
            assert isinstance(kb.store, SqliteStore)
            kb.assert_fact("move", 1, 2)
        with KnowledgeBase(GAME, config=config) as kb:
            assert kb.fact_count() == 1

    def test_bogus_store_argument_rejected(self):
        with pytest.raises(EvaluationError):
            KnowledgeBase(GAME, store=42)


class TestDifferentialBackends:
    def test_memory_and_sqlite_sessions_agree(self):
        memory = KnowledgeBase(GAME, store=MemoryStore())
        durable = KnowledgeBase(GAME, store=SqliteStore(":memory:"))
        steps = [
            ("assert", ("move", "a", "b")),
            ("assert", ("move", "b", "a")),
            ("assert", ("move", "b", "c")),
            ("assert", ("move", "c", "d")),
            ("retract", ("move", "b", "c")),
        ]
        for action, fact in steps:
            for kb in (memory, durable):
                if action == "assert":
                    kb.assert_fact(*fact)
                else:
                    kb.retract_fact(*fact)
            assert sorted(memory.query("wins")) == sorted(durable.query("wins"))
            assert sorted(memory.query("wins").undefined) == sorted(
                durable.query("wins").undefined
            )
            assert memory.store.contents() == durable.store.contents()


class TestStoreEvents:
    def test_direct_store_mutations_refresh_the_model(self):
        kb = KnowledgeBase("p :- not q.")
        kb.assert_fact("q")
        assert not kb.is_true("p")
        kb.store.remove("q")  # bypasses the session API entirely
        assert kb.is_true("p")
        kb.store.add("q")
        assert not kb.is_true("p")

    def test_incremental_engine_driven_by_store_events(self):
        kb = KnowledgeBase("a :- not b. b :- not a. p :- not x.")
        kb.assert_fact("x")
        assert kb.is_incremental
        kb.solution
        kb.store.remove("x")
        assert kb.is_true("p")
        assert kb.last_update.mode == "delta"
        assert not kb._changed

    def test_a_session_listens_to_its_store_once(self):
        kb = KnowledgeBase(GAME, facts=MOVES)
        kb.solution
        assert kb.is_incremental
        assert kb.store._listeners == [kb._on_store_change]
        kb.close()
        assert kb.store._listeners == []

    def test_cancelling_store_mutations_skip_refresh(self):
        kb = KnowledgeBase(GAME, facts=MOVES)
        kb.solution
        refreshes = kb.statistics()["refreshes"]
        kb.store.add("move", "z", "z")
        kb.store.remove("move", "z", "z")
        kb.solution
        assert kb.statistics()["refreshes"] == refreshes


class TestReplPersistence:
    def test_open_and_save_commands(self, tmp_path):
        path = tmp_path / "repl.db"
        out = io.StringIO()
        kb = KnowledgeBase(parse_program("move(a, b). " + GAME))
        run_repl(
            kb,
            [f"save {path}", f"open {path}", "assert move(b, c).", "facts", "quit"],
            out,
        )
        transcript = out.getvalue()
        assert f"saved 1 fact(s) to {path}" in transcript
        assert f"opened {path} (1 fact(s))" in transcript
        # The assert went to the durable store: a fresh session sees it.
        with KnowledgeBase.open(path, GAME) as reopened:
            assert reopened.store.contains("move", "b", "c")
            assert reopened.fact_count() == 2

    def test_open_requires_path_and_no_open_batch(self, tmp_path):
        out = io.StringIO()
        kb = KnowledgeBase(GAME)
        run_repl(kb, ["open", "begin", f"open {tmp_path}/x.db", "abort"], out)
        transcript = out.getvalue()
        assert "open expects a database path" in transcript
        assert "commit or abort the open batch first" in transcript

    def test_failed_open_keeps_the_session_alive(self, tmp_path):
        bogus = tmp_path / "corrupt.db"
        bogus.write_text("not sqlite", encoding="utf-8")
        out = io.StringIO()
        kb = KnowledgeBase(GAME)
        run_repl(
            kb,
            [f"open {bogus}", "assert move(a, b).", "query wins"],
            out,
        )
        transcript = out.getvalue()
        assert "error:" in transcript
        # The failed open left the session fully functional: the assert
        # reached the model, not just the store.
        assert "asserted" in transcript
        assert "(a)" in transcript


class TestFactsSources:
    def test_facts_kwarg_accepts_a_store(self):
        source = MemoryStore()
        source.load(MOVES)
        kb = KnowledgeBase(GAME, facts=source)
        assert kb.fact_count() == 3
        # Loaded by value: the session's store is its own backend.
        assert kb.store is not source
        source.add("move", "z", "z")
        assert kb.fact_count() == 3

    def test_load_accepts_a_store(self):
        source = MemoryStore()
        source.load(MOVES)
        kb = KnowledgeBase(GAME)
        assert kb.load(source) == 3

    def test_rule_text_facts_persist_to_the_backend(self, tmp_path):
        path = tmp_path / "seeded.db"
        with KnowledgeBase.open(path, "move(a, b). " + GAME) as kb:
            assert kb.fact_count() == 1
        with KnowledgeBase.open(path, GAME) as reopened:
            assert reopened.store.contains("move", "a", "b")

    def test_explain_against_persistent_model(self, tmp_path):
        with KnowledgeBase.open(tmp_path / "kb.db", GAME) as kb:
            kb.load(MOVES)
            explanation = kb.explain(parse_atom("wins(b)"))
            assert explanation.render()
