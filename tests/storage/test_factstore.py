"""Unit tests for the FactStore protocol and its two backends.

Every behavioural test is parametrized over :class:`MemoryStore` and
:class:`SqliteStore` — the protocol is one contract, so both backends
must pass the identical suite.
"""

import importlib

import pytest

import repro
from repro import solve
from repro.datalog.atoms import Atom
from repro.datalog.terms import Compound, Constant
from repro.exceptions import NotGroundError, StorageError
from repro.storage import (
    MemoryStore,
    SqliteStore,
    open_store,
    parse_store_spec,
)
from repro.storage.sqlite import decode_term, encode_term


@pytest.fixture(params=["memory", "sqlite"])
def store(request):
    backend = MemoryStore() if request.param == "memory" else SqliteStore(":memory:")
    yield backend
    backend.close()


def ground(predicate, *values):
    return Atom(predicate, tuple(Constant(v) for v in values))


class TestMutationAndQueries:
    def test_add_remove_contains(self, store):
        assert store.add("edge", 1, 2)
        assert not store.add("edge", 1, 2)
        assert store.contains("edge", 1, 2)
        assert store.remove("edge", 1, 2)
        assert not store.remove("edge", 1, 2)
        assert not store.contains("edge", 1, 2)

    def test_signatures_keyed_on_predicate_and_arity(self, store):
        store.add("p", 1)
        store.add("p", 1, 2)
        assert store.signatures() == {("p", 1), ("p", 2)}
        assert store.count("p", 1) == 1
        assert store.count("p", 2) == 1
        # Removing one arity leaves the other untouched.
        store.remove("p", 1)
        assert store.signatures() == {("p", 2)}
        assert store.values("p") == {(1, 2)}

    def test_arity_zero_relation(self, store):
        assert store.add("flag")
        assert not store.add("flag")
        assert store.contains("flag")
        assert list(store.tuples("flag", 0)) == [()]
        assert store.remove("flag")
        assert not store.contains("flag")

    def test_len_iter_and_facts(self, store):
        store.load({"edge": [(1, 2), (2, 3)], "node": [(1,)]})
        assert len(store) == 3
        assert set(store) == {ground("edge", 1, 2), ground("edge", 2, 3), ground("node", 1)}
        assert ground("edge", 1, 2) in store
        assert ground("edge", 9, 9) not in store

    def test_non_ground_atoms_rejected(self, store):
        from repro.datalog.atoms import atom

        with pytest.raises(NotGroundError):
            store.add_atom(atom("edge", "X", 2))

    def test_reads_do_not_create_relations(self, store):
        assert not store.contains("ghost", 1)
        assert store.count("ghost", 1) == 0
        assert list(store.tuples("ghost", 1)) == []
        assert store.signatures() == set()
        assert len(store) == 0

    def test_as_program_and_contents(self, store):
        store.load({"edge": [(1, 2)]})
        program = store.as_program()
        assert len(program) == 1
        assert store.contents() == {
            ("edge", 2): frozenset({(Constant(1), Constant(2))})
        }

    def test_name_keyed_reads_do_not_create_relations(self, store):
        assert store.values("ghost") == set()
        assert store.relation_names() == set()
        assert store.signatures() == set()
        assert len(store) == 0

    def test_emptied_relations_drop_out(self, store):
        store.load({"edge": [(1, 2), ("a", "b")], "node": [(1,)]})
        assert store.relation_names() == {"edge", "node"}
        assert store.values("edge") == {(1, 2), ("a", "b")}
        store.remove("edge", 1, 2)
        store.remove("edge", "a", "b")
        assert store.relation_names() == {"node"}
        assert store.values("edge") == set()
        assert store.signatures() == {("node", 1)}
        store.add("edge", 5, 6)
        assert list(store.tuples("edge", 2)) == [(Constant(5), Constant(6))]

    def test_constants(self, store):
        store.load({"edge": [(1, 2)], "label": [("a",)]})
        assert store.constants() == {Constant(1), Constant(2), Constant("a")}

    def test_contents_equal_across_backends(self, store):
        rows = {"edge": [(1, 2), (2, 3)], "node": [(1,)]}
        store.load(rows)
        other = SqliteStore(":memory:") if isinstance(store, MemoryStore) else MemoryStore()
        with other:
            other.load(rows)
            assert store.contents() == other.contents()
            other.add("edge", 9, 9)
            assert store.contents() != other.contents()


class TestOneFactContainer:
    def test_no_database_facade(self):
        assert not hasattr(repro, "Database")
        assert not hasattr(repro.datalog, "Database")
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.datalog.database")


def rows(*pairs):
    return [tuple(Constant(value) for value in pair) for pair in pairs]


class TestReads:
    def test_tuples_in_insertion_order(self, store):
        # A grounding's first round, and so its atom ids, follow this order.
        store.load({"edge": [(3, 1), (1, 2), (2, 9)]})
        assert list(store.tuples("edge", 2)) == rows((3, 1), (1, 2), (2, 9))
        store.remove("edge", 3, 1)
        store.add("edge", 3, 1)
        assert list(store.tuples("edge", 2)) == rows((1, 2), (2, 9), (3, 1))

    def test_mutating_while_iterating_tuples(self, store):
        store.load({"edge": [(1, 2), (2, 3)]})
        seen = []
        for row in store.tuples("edge", 2):
            seen.append(row)
            store.add("edge", 9, len(seen))
            store.remove("edge", 2, 3)
        # The rows were read before the first was yielded.
        assert seen == rows((1, 2), (2, 3))
        assert list(store.tuples("edge", 2)) == rows((1, 2), (9, 1), (9, 2))


class TestStats:
    def test_empty_store(self, store):
        stats = store.stats()
        assert stats["backend"] == type(store).__name__
        assert stats["relations"] == {}
        assert stats["rows"] == 0
        assert stats["probes"] == 0

    def test_per_relation_rows(self, store):
        store.load({"edge": [(1, 2), (2, 3)], "node": [(1,), (2,), (3,)]})
        store.add("flag")
        stats = store.stats()
        assert set(stats["relations"]) == {"edge/2", "node/1", "flag/0"}
        assert stats["relations"]["edge/2"]["rows"] == 2
        assert stats["relations"]["node/1"]["rows"] == 3
        assert stats["rows"] == 6
        assert stats["relations"]["flag/0"] == {"rows": 1}

    def test_grounding_leaves_probes_at_zero(self, store):
        store.load({"edge": [(1, 2), (1, 3), (2, 3)]})
        solve("tc(X, Y) :- edge(X, Y). tc(X, Y) :- edge(X, Z), tc(Z, Y).", store=store)
        # The grounder read the rows into its own relations; the store
        # keeps no index and served no probe.
        stats = store.stats()
        assert stats["probes"] == 0
        assert "indexes" not in stats

    def test_stats_shape_identical_across_backends(self):
        with MemoryStore() as memory, SqliteStore(":memory:") as sqlite:
            for backend in (memory, sqlite):
                backend.load({"edge": [(1, 2), (2, 3)]})
                solve("p(X) :- edge(X, 2).", store=backend)
            memory_stats, sqlite_stats = memory.stats(), sqlite.stats()
            assert set(memory_stats) == set(sqlite_stats)
            for field in ("relations", "rows", "probes"):
                assert memory_stats[field] == sqlite_stats[field]


class TestSavepoints:
    def test_rollback_undoes_mutations(self, store):
        store.add("edge", 1, 2)
        token = store.savepoint()
        store.add("edge", 9, 9)
        store.remove("edge", 1, 2)
        store.rollback_to(token)
        assert store.values("edge") == {(1, 2)}

    def test_nested_savepoints(self, store):
        outer = store.savepoint()
        store.add("p", 1)
        inner = store.savepoint()
        store.add("p", 2)
        store.rollback_to(inner)
        assert store.values("p") == {(1,)}
        store.release(outer)
        assert store.values("p") == {(1,)}

    def test_rollback_of_new_relation(self, store):
        token = store.savepoint()
        store.add("fresh", 1)
        store.rollback_to(token)
        assert store.signatures() == set()
        # The relation can be created again afterwards.
        store.add("fresh", 2)
        assert store.values("fresh") == {(2,)}

    def test_out_of_order_resolution_rejected(self, store):
        outer = store.savepoint()
        store.savepoint()
        with pytest.raises(StorageError):
            store.release(outer)

    def test_rollback_notifies_inverse_events(self, store):
        events = []
        store.subscribe(lambda atom, added: events.append((str(atom), added)))
        token = store.savepoint()
        store.add("p", 1)
        store.remove("p", 1)
        store.add("p", 2)
        store.rollback_to(token)
        assert events == [
            ("p(1)", True),
            ("p(1)", False),
            ("p(2)", True),
            # inverse replay, newest first
            ("p(2)", False),
            ("p(1)", True),
            ("p(1)", False),
        ]


class TestChangeEvents:
    def test_listener_sees_every_effective_mutation(self, store):
        events = []
        listener = lambda atom, added: events.append((str(atom), added))
        store.subscribe(listener)
        store.add("edge", 1, 2)
        store.add("edge", 1, 2)  # duplicate: no event
        store.remove("edge", 9, 9)  # absent: no event
        store.remove("edge", 1, 2)
        assert events == [("edge(1, 2)", True), ("edge(1, 2)", False)]
        store.unsubscribe(listener)
        store.add("edge", 3, 4)
        assert len(events) == 2


class TestSpecs:
    def test_parse_store_spec(self):
        assert parse_store_spec("memory") == ("memory", None)
        assert parse_store_spec("sqlite:kb.db") == ("sqlite", "kb.db")
        for bad in ("bogus", "sqlite", "sqlite:", "memory:extra"):
            with pytest.raises(StorageError):
                parse_store_spec(bad)

    def test_open_store(self, tmp_path):
        memory = open_store("memory")
        assert isinstance(memory, MemoryStore)
        durable = open_store(f"sqlite:{tmp_path}/kb.db")
        assert isinstance(durable, SqliteStore)
        durable.close()


class TestSqliteSpecifics:
    def test_reopen_restores_contents(self, tmp_path):
        path = tmp_path / "kb.db"
        first = SqliteStore(path)
        first.load({"edge": [(1, 2), ("a", "b")], "flag": [()]})
        first.remove("edge", 1, 2)
        first.close()
        second = SqliteStore(path)
        assert second.values("edge") == {("a", "b")}
        assert second.contains("flag")
        second.close()

    def test_closed_store_raises(self, tmp_path):
        backend = SqliteStore(tmp_path / "kb.db")
        backend.close()
        backend.close()  # idempotent
        with pytest.raises(StorageError):
            backend.add("edge", 1, 2)

    @pytest.mark.parametrize(
        "term",
        [
            Constant(1),
            Constant(-7),
            Constant(True),
            Constant(False),
            Constant(1.5),
            Constant("hello"),
            Constant("1"),  # string "1" must not collapse into integer 1
            Constant(""),
            Constant(None),
            Compound("f", (Constant(1), Compound("g", (Constant("x"),)))),
        ],
    )
    def test_term_round_trip(self, term):
        assert decode_term(encode_term(term)) == term

    def test_payload_equality_matches_python_semantics(self):
        # 1 == True == 1.0 in Python, so MemoryStore's hash sets treat
        # them as one fact; the SQLite encoding must agree.  "1" differs.
        backend = SqliteStore(":memory:")
        assert backend.add("p", 1)
        assert backend.add("p", "1")
        assert not backend.add("p", True)
        assert not backend.add("p", 1.0)
        assert backend.count("p", 1) == 2
        assert backend.contains("p", True) and backend.contains("p", 1.0)
        backend.close()

    def test_unsupported_payload_rejected(self):
        backend = SqliteStore(":memory:")
        with pytest.raises(StorageError):
            backend.add("p", object())
        backend.close()

    def test_compound_terms_round_trip_through_store(self, tmp_path):
        path = tmp_path / "kb.db"
        backend = SqliteStore(path)
        term = Compound("f", (Constant(1), Constant("x")))
        backend.add_atom(Atom("p", (term,)))
        backend.close()
        reopened = SqliteStore(path)
        assert Atom("p", (term,)) in reopened
        assert list(reopened.tuples("p", 1)) == [(term,)]
        reopened.close()
