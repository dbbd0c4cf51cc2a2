"""Concurrent-access coverage for the fact stores.

Two batteries the query service leans on:

* WAL multi-connection behaviour — reader :class:`SqliteStore` instances
  on the same database file keep serving committed state while a writer
  connection churns (plain autocommit inserts, and savepoint batches that
  roll back and must never leak half a batch to another connection);
* the exactly-once ``subscribe`` contract — every successful mutation is
  delivered once, duplicates are silent, and a savepoint rollback
  re-notifies the *inverse* of each undone mutation exactly once.
"""

from __future__ import annotations

import sqlite3
import threading

import pytest

from repro.datalog import parse_atom
from repro.storage import MemoryStore, SqliteStore


def _atoms(predicate: str, count: int, offset: int = 0):
    return [parse_atom(f"{predicate}({i})") for i in range(offset, offset + count)]


class TestSqliteWalConcurrency:
    def test_readers_see_monotone_committed_state_during_writer_churn(self, tmp_path):
        path = tmp_path / "churn.db"
        writer = SqliteStore(path)
        total = 200
        done = threading.Event()
        failures: list[str] = []

        def reader_loop():
            # Any exception (e.g. a catalogue row visible before its table)
            # is a failure of the test, not just of this thread.
            try:
                store = SqliteStore(path)
            except Exception as error:  # noqa: BLE001
                failures.append(f"reader could not open: {error!r}")
                return
            try:
                last = 0
                while not done.is_set() or last < total:
                    seen = store.count("fact", 1)
                    if seen < last:
                        failures.append(f"count went backwards: {last} -> {seen}")
                        return
                    # Every visible row must be a fully-written tuple.
                    rows = list(store.tuples("fact", 1))
                    if any(len(row) != 1 for row in rows):
                        failures.append(f"torn row among {rows!r}")
                        return
                    last = seen
                    if done.is_set() and last >= total:
                        break
            except Exception as error:  # noqa: BLE001
                failures.append(f"reader died: {error!r}")
            finally:
                store.close()

        readers = [threading.Thread(target=reader_loop) for _ in range(3)]
        for thread in readers:
            thread.start()
        try:
            for atom in _atoms("fact", total):
                writer.add_atom(atom)
        finally:
            done.set()
        for thread in readers:
            thread.join(30)
        assert not failures, failures[0]
        assert writer.count("fact", 1) == total

        check = SqliteStore(path)
        assert check.count("fact", 1) == total
        check.close()
        writer.close()

    def test_catalogue_row_commits_with_its_table(self, tmp_path, monkeypatch):
        # Another connection must never see a relation catalogued whose
        # table does not exist yet: the two statements commit together.
        path = tmp_path / "catalogue.db"
        writer = SqliteStore(path)
        reader = sqlite3.connect(path)
        visible: list[int] = []
        execute = SqliteStore._execute

        def spy(self, sql, parameters=()):
            cursor = execute(self, sql, parameters)
            if sql.startswith("INSERT INTO repro_relations"):
                [(count,)] = reader.execute("SELECT COUNT(*) FROM repro_relations")
                visible.append(count)
            return cursor

        monkeypatch.setattr(SqliteStore, "_execute", spy)
        try:
            writer.add_atom(parse_atom("fact(1)"))
            assert visible == [0]
            [(count,)] = reader.execute("SELECT COUNT(*) FROM repro_relations")
            assert count == 1
            assert reader.execute("SELECT COUNT(*) FROM facts_1").fetchone() == (1,)
        finally:
            reader.close()
            writer.close()

    def test_rolled_back_batches_never_leak_to_other_connections(self, tmp_path):
        path = tmp_path / "rollback.db"
        writer = SqliteStore(path)
        for atom in _atoms("real", 5):
            writer.add_atom(atom)
        done = threading.Event()
        leaks: list[str] = []

        def reader_loop():
            try:
                store = SqliteStore(path)
            except Exception as error:  # noqa: BLE001
                leaks.append(f"reader could not open: {error!r}")
                return
            try:
                while not done.is_set():
                    ghosts = store.count("ghost", 1)
                    if ghosts:
                        leaks.append(f"reader observed {ghosts} uncommitted ghost rows")
                        return
            except Exception as error:  # noqa: BLE001
                leaks.append(f"reader died: {error!r}")
            finally:
                store.close()

        reader = threading.Thread(target=reader_loop)
        reader.start()
        try:
            # Interleave committed inserts with savepoint batches that roll
            # back: the "ghost" rows open a transaction scope and are undone
            # before it ever commits, so no other connection may see them.
            for round_number in range(30):
                token = writer.savepoint()
                for atom in _atoms("ghost", 4, offset=round_number * 4):
                    writer.add_atom(atom)
                writer.rollback_to(token)
                writer.add_atom(parse_atom(f"real(c{round_number})"))
        finally:
            done.set()
        reader.join(30)
        assert not leaks, leaks[0]
        assert writer.count("ghost", 1) == 0
        assert writer.count("real", 1) == 35
        writer.close()

    def test_committed_savepoint_batch_is_visible_atomically(self, tmp_path):
        path = tmp_path / "batch.db"
        writer = SqliteStore(path)
        reader = SqliteStore(path)
        token = writer.savepoint()
        for atom in _atoms("batch", 10):
            writer.add_atom(atom)
        # Open savepoint scope: another connection sees none of it yet.
        assert reader.count("batch", 1) == 0
        writer.release(token)
        assert reader.count("batch", 1) == 10
        reader.close()
        writer.close()


@pytest.mark.parametrize("make_store", [MemoryStore, SqliteStore], ids=["memory", "sqlite"])
class TestSubscribeExactlyOnce:
    def test_each_mutation_delivers_exactly_once(self, make_store):
        store = make_store()
        events: list[tuple[str, bool]] = []
        store.subscribe(lambda atom, added: events.append((str(atom), added)))
        a, b = parse_atom("p(a)"), parse_atom("p(b)")
        assert store.add_atom(a) and store.add_atom(b)
        assert not store.add_atom(a)  # duplicate: no change, no event
        assert store.remove_atom(b)
        assert not store.remove_atom(b)  # absent: no change, no event
        assert events == [("p(a)", True), ("p(b)", True), ("p(b)", False)]
        store.close()

    def test_rollback_renotifies_inverse_events_exactly_once(self, make_store):
        store = make_store()
        base = parse_atom("p(base)")
        store.add_atom(base)
        events: list[tuple[str, bool]] = []
        store.subscribe(lambda atom, added: events.append((str(atom), added)))

        token = store.savepoint()
        store.add_atom(parse_atom("p(new)"))
        store.remove_atom(base)
        store.rollback_to(token)

        # Forward events once each, then the inverse replay once each,
        # innermost-last-first: re-add base, then un-add new.
        assert events == [
            ("p(new)", True),
            ("p(base)", False),
            ("p(base)", True),
            ("p(new)", False),
        ]
        assert store.contains_atom(base)
        assert not store.contains_atom(parse_atom("p(new)"))
        store.close()

    def test_released_batch_delivers_no_duplicate_events(self, make_store):
        store = make_store()
        events: list[tuple[str, bool]] = []
        store.subscribe(lambda atom, added: events.append((str(atom), added)))
        token = store.savepoint()
        store.add_atom(parse_atom("p(x)"))
        store.add_atom(parse_atom("p(y)"))
        store.release(token)
        assert events == [("p(x)", True), ("p(y)", True)]
        store.close()

    def test_nested_rollback_replays_only_inner_scope(self, make_store):
        store = make_store()
        events: list[tuple[str, bool]] = []
        store.subscribe(lambda atom, added: events.append((str(atom), added)))
        outer = store.savepoint()
        store.add_atom(parse_atom("p(outer)"))
        inner = store.savepoint()
        store.add_atom(parse_atom("p(inner)"))
        store.rollback_to(inner)
        store.release(outer)
        assert events == [
            ("p(outer)", True),
            ("p(inner)", True),
            ("p(inner)", False),
        ]
        assert store.contains_atom(parse_atom("p(outer)"))
        assert not store.contains_atom(parse_atom("p(inner)"))
        store.close()

    def test_unsubscribed_listener_stops_receiving(self, make_store):
        store = make_store()
        events: list[tuple[str, bool]] = []

        def listener(atom, added):
            events.append((str(atom), added))

        store.subscribe(listener)
        store.subscribe(listener)  # double-subscribe must not double-deliver
        store.add_atom(parse_atom("p(one)"))
        store.unsubscribe(listener)
        store.add_atom(parse_atom("p(two)"))
        assert events == [("p(one)", True)]
        store.close()
