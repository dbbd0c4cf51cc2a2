"""The durable, stdlib-``sqlite3`` :class:`FactStore` backend.

:class:`SqliteStore` stores one SQL table per ``(predicate, arity)``
relation (a catalogue table maps signatures to table names, so arbitrary
predicate names never reach SQL identifiers).  Each row carries a
monotonically increasing ``seq`` (``INTEGER PRIMARY KEY AUTOINCREMENT``,
never reused), which orders :meth:`SqliteStore.tuples` by insertion, plus
one encoded column per argument position, with a uniqueness constraint
over the argument columns standing in for the set semantics of the
in-memory backend.  A grounding run reads each relation once with one
``SELECT ... ORDER BY seq``; the store creates no other index.  Savepoints
map onto SQL ``SAVEPOINT`` / ``ROLLBACK TO`` / ``RELEASE``, with a
Python-side journal replayed on rollback so change listeners observe the
inverse mutations.

Because facts live on disk, a :class:`~repro.session.KnowledgeBase`
opened over this backend (``KnowledgeBase.open("kb.db")``) survives
process exit.
"""

from __future__ import annotations

import json
import sqlite3
import threading
from pathlib import Path
from typing import Iterator, Optional

from ..datalog.atoms import Atom
from ..datalog.terms import Compound, Constant, Term
from ..exceptions import StorageError, StoreCorrupt
from ..resilience.retry import RetryExhausted, RetryPolicy, retry_call
from .base import FactStore

__all__ = ["SqliteStore"]

#: Base delay of the exponential lock-retry backoff (seconds); attempt *n*
#: sleeps roughly ``_RETRY_BASE_DELAY * 2**(n-1)`` (plus bounded jitter —
#: see :class:`repro.resilience.retry.RetryPolicy`).
_RETRY_BASE_DELAY = 0.002


def _is_busy(error: sqlite3.OperationalError) -> bool:
    """Whether *error* is the transient lock/busy contention SQLite raises
    when another connection holds a conflicting lock past ``busy_timeout``."""
    message = str(error).lower()
    return "locked" in message or "busy" in message


def _is_corruption(error: sqlite3.Error) -> bool:
    message = str(error).lower()
    return (
        "not a database" in message
        or "malformed" in message
        or "corrupt" in message
    )

_SCHEMA = """
CREATE TABLE IF NOT EXISTS repro_relations (
    id        INTEGER PRIMARY KEY AUTOINCREMENT,
    predicate TEXT    NOT NULL,
    arity     INTEGER NOT NULL,
    UNIQUE (predicate, arity)
)
"""


# --------------------------------------------------------------------- #
# Term encoding: a deterministic, order-stable text form per column, so
# equality lookups and the uniqueness constraint work on the encoded
# values directly.
# --------------------------------------------------------------------- #
def encode_term(term: Term) -> str:
    """Encode a ground term as deterministic JSON text."""
    return json.dumps(_to_payload(term), separators=(",", ":"), ensure_ascii=False)


def decode_term(text: str) -> Term:
    """Invert :func:`encode_term`."""
    return _from_payload(json.loads(text))


def _to_payload(term: Term) -> list:
    if isinstance(term, Constant):
        value = term.value
        # Numbers are canonicalised so that payloads that compare equal in
        # Python (1 == True == 1.0) encode identically — otherwise the
        # SQLite backend would store as distinct rows what MemoryStore's
        # hash-set semantics treat as one fact.
        if isinstance(value, (bool, int, float)):
            if isinstance(value, float) and not value.is_integer():
                return ["f", value]
            return ["i", int(value)]
        if isinstance(value, str):
            return ["s", value]
        if value is None:
            return ["z"]
        raise StorageError(
            f"SqliteStore cannot serialise constant payload {value!r} "
            f"of type {type(value).__name__}"
        )
    if isinstance(term, Compound):
        if not term.is_ground:
            raise StorageError(f"cannot store non-ground term {term}")
        return ["c", term.functor, [_to_payload(arg) for arg in term.args]]
    raise StorageError(f"cannot store non-ground term {term}")


def _from_payload(payload: list) -> Term:
    tag = payload[0]
    if tag in ("i", "f", "s"):
        return Constant(payload[1])
    if tag == "z":
        return Constant(None)
    if tag == "c":
        return Compound(payload[1], tuple(_from_payload(arg) for arg in payload[2]))
    raise StorageError(f"malformed stored term payload {payload!r}")


class SqliteStore(FactStore):
    """Durable fact storage in a SQLite database file.

    Parameters
    ----------
    path:
        SQLite file path, or ``":memory:"`` for a private in-process
        database (useful for tests and as a drop-in differential twin of
        :class:`~repro.storage.MemoryStore`).
    busy_timeout_ms:
        SQLite's own in-connection wait for conflicting locks
        (``PRAGMA busy_timeout``) — the first line of defence against
        "database is locked" under concurrent writers.
    max_retries:
        Bounded statement-level retries with exponential backoff after the
        busy timeout itself gives up; the count of performed retries is
        surfaced as ``stats()["retries"]``.  Exhausting the retries raises
        :class:`~repro.exceptions.StorageError`.

    Opening a file-backed store validates the on-disk state — a
    ``PRAGMA integrity_check`` plus a catalogue/table shape check — and
    raises :class:`~repro.exceptions.StoreCorrupt` on damage, so a corrupt
    database fails loudly at ``open()`` instead of mid-query.
    """

    def __init__(
        self,
        path: str | Path = ":memory:",
        busy_timeout_ms: int = 5000,
        max_retries: int = 5,
    ):
        super().__init__()
        self.path = str(path)
        self.busy_timeout_ms = int(busy_timeout_ms)
        self.max_retries = int(max_retries)
        self._retry_policy = RetryPolicy(
            max_retries=self.max_retries, base_delay=_RETRY_BASE_DELAY
        )
        self._connection: Optional[sqlite3.Connection] = None
        # One connection shared across threads: a session opens the store
        # and solves its first epoch on the caller's thread, the query
        # service's writer thread then mutates and reads it, and the
        # caller's thread closes it after the drain; a store may also back
        # other sessions or solves on other threads.
        # check_same_thread=False permits the sharing; the mutex serialises
        # statement execution at the Python level so the catalogue cache
        # and cursor materialisation stay consistent
        # regardless of the compiled SQLite thread mode.
        self._mutex = threading.RLock()
        try:
            # Autocommit mode: every statement is durable on its own, and
            # SAVEPOINT opens an explicit transaction scope when needed.
            # sqlite3.connect is lazy, so the schema bootstrap below is
            # where a corrupt or non-database file actually fails — the
            # whole sequence maps onto the library's error contract.
            self._connection = sqlite3.connect(
                self.path, isolation_level=None, check_same_thread=False
            )
            cursor = self._connection.cursor()
            cursor.execute(f"PRAGMA busy_timeout={self.busy_timeout_ms}")
            if self.path != ":memory:":
                cursor.execute("PRAGMA journal_mode=WAL")
                cursor.execute("PRAGMA synchronous=NORMAL")
                self._verify_integrity(cursor)
            cursor.execute(_SCHEMA)
            # (predicate, arity) -> catalogue id; tables are facts_<id>.
            self._tables: dict[tuple[str, int], int] = {
                (predicate, arity): table_id
                for table_id, predicate, arity in cursor.execute(
                    "SELECT id, predicate, arity FROM repro_relations"
                )
            }
            if self.path != ":memory:":
                self._verify_schema(cursor)
        except sqlite3.Error as error:
            if self._connection is not None:
                self._connection.close()
                self._connection = None
            if _is_corruption(error):
                raise StoreCorrupt(
                    f"SQLite store at {self.path!r} is corrupt: {error}"
                ) from error
            raise StorageError(
                f"cannot open SQLite store at {self.path!r}: {error}"
            ) from error
        except StoreCorrupt:
            if self._connection is not None:
                self._connection.close()
                self._connection = None
            raise
        self._journal: list[tuple[Atom, bool]] = []
        self._savepoints: list[tuple[str, int]] = []
        self._savepoint_counter = 0

    def _verify_integrity(self, cursor: sqlite3.Cursor) -> None:
        """Fail fast on a damaged database file (``integrity_check``)."""
        rows = cursor.execute("PRAGMA integrity_check").fetchall()
        findings = [row[0] for row in rows if row[0] != "ok"]
        if findings:
            raise StoreCorrupt(
                f"SQLite store at {self.path!r} failed integrity_check: "
                f"{'; '.join(str(f) for f in findings[:3])}"
            )

    def _verify_schema(self, cursor: sqlite3.Cursor) -> None:
        """Every catalogued relation must have its backing ``facts_<id>``
        table with the expected column shape (``seq`` + one encoded column
        per argument position, or ``seq`` + ``present`` for arity 0)."""
        for (predicate, arity), table_id in self._tables.items():
            info = cursor.execute(f"PRAGMA table_info(facts_{table_id})").fetchall()
            if not info:
                raise StoreCorrupt(
                    f"SQLite store at {self.path!r} is missing table "
                    f"facts_{table_id} for relation {predicate}/{arity}"
                )
            expected = arity + 1 if arity else 2
            if len(info) != expected:
                raise StoreCorrupt(
                    f"SQLite store at {self.path!r}: table facts_{table_id} for "
                    f"{predicate}/{arity} has {len(info)} columns, expected {expected}"
                )

    # ------------------------------------------------------------------ #
    # Plumbing
    # ------------------------------------------------------------------ #
    def _cursor(self) -> sqlite3.Cursor:
        if self._connection is None:
            raise StorageError(f"SQLite store {self.path!r} is closed")
        return self._connection.cursor()

    def _execute(self, sql: str, parameters: tuple | list = ()) -> sqlite3.Cursor:
        """Execute one statement with bounded retry on transient lock
        contention.

        ``PRAGMA busy_timeout`` already makes SQLite wait in-line; this
        layer retries the statement itself (exponential backoff with
        jitter, via the shared :func:`repro.resilience.retry.retry_call`
        helper) for the cases the timeout cannot cover, counting each
        retry into :attr:`~repro.storage.base.FactStore.retries`.
        Non-busy errors propagate unchanged; exhausted retries raise a
        :class:`~repro.exceptions.StorageError` naming the retry budget.
        """

        def _attempt() -> sqlite3.Cursor:
            # The mutex covers one statement, not the backoff sleeps, so a
            # retrying statement never starves other threads sharing the
            # connection.
            with self._mutex:
                return self._cursor().execute(sql, parameters)

        def _transient(error: BaseException) -> bool:
            return isinstance(error, sqlite3.OperationalError) and _is_busy(error)

        def _count(attempt: int, error: BaseException) -> None:
            self.retries += 1

        try:
            return retry_call(
                _attempt,
                retryable=_transient,
                policy=self._retry_policy,
                on_retry=_count,
                reraise=False,
            )
        except RetryExhausted as exhausted:
            raise StorageError(
                f"SQLite store {self.path!r} stayed locked after "
                f"{exhausted.attempts} retries: {exhausted.last_error}"
            ) from exhausted.last_error

    def _query_all(self, sql: str, parameters: tuple | list = ()) -> list:
        """Execute one read statement and materialise its rows atomically.

        Execution *and* fetch happen under the store mutex, so a reader's
        result set can never interleave with (or be aborted by) a writer
        statement or savepoint rollback on the shared connection — each
        read observes a point-in-time state.
        """
        with self._mutex:
            return self._execute(sql, parameters).fetchall()

    def _table(self, predicate: str, arity: int, create: bool = False) -> Optional[str]:
        table_id = self._tables.get((predicate, arity))
        if table_id is None:
            # The catalogue cache was loaded at open; under WAL another
            # connection on the same file may have created the relation
            # since.  Re-probe the on-disk catalogue before concluding the
            # relation does not exist, so reader stores follow writer
            # connections instead of serving an eternally empty relation.
            found = self._query_all(
                "SELECT id FROM repro_relations WHERE predicate = ? AND arity = ?",
                (predicate, arity),
            )
            if found:
                table_id = found[0][0]
                self._tables[(predicate, arity)] = table_id
                return f"facts_{table_id}"
            if not create:
                return None
            table_id = self._create_relation(predicate, arity)
            self._tables[(predicate, arity)] = table_id
        return f"facts_{table_id}"

    def _create_relation(self, predicate: str, arity: int) -> int:
        """Catalogue a relation and create its table in one transaction.

        As two autocommit statements, a WAL reader re-probing the catalogue
        could see the row before the table exists.  A savepoint makes the
        pair atomic and nests inside an open batch savepoint (whose
        rollback then undoes both).
        """
        name = self._next_savepoint_name()
        with self._mutex:
            self._execute(f"SAVEPOINT {name}")
            try:
                cursor = self._execute(
                    "INSERT INTO repro_relations (predicate, arity) VALUES (?, ?)",
                    (predicate, arity),
                )
                table_id = cursor.lastrowid
                if arity:
                    columns = ", ".join(f"c{i} TEXT NOT NULL" for i in range(arity))
                    unique = ", ".join(f"c{i}" for i in range(arity))
                    self._execute(
                        f"CREATE TABLE facts_{table_id} "
                        f"(seq INTEGER PRIMARY KEY AUTOINCREMENT, {columns}, UNIQUE ({unique}))"
                    )
                else:
                    # Propositional relation: at most one (argument-less) row.
                    self._execute(
                        f"CREATE TABLE facts_{table_id} "
                        f"(seq INTEGER PRIMARY KEY AUTOINCREMENT, present INTEGER UNIQUE)"
                    )
            except BaseException:
                self._execute(f"ROLLBACK TO {name}")
                self._execute(f"RELEASE {name}")
                raise
            self._execute(f"RELEASE {name}")
        return table_id

    def _next_savepoint_name(self) -> str:
        self._savepoint_counter += 1
        return f"repro_sp_{self._savepoint_counter}"

    def _encode_row(self, atom: Atom) -> list[str]:
        return [encode_term(term) for term in atom.args]

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    def add_atom(self, atom: Atom) -> bool:
        self._check_ground(atom)
        table = self._table(atom.predicate, atom.arity, create=True)
        if atom.arity:
            columns = ", ".join(f"c{i}" for i in range(atom.arity))
            holes = ", ".join("?" for _ in range(atom.arity))
            cursor = self._execute(
                f"INSERT OR IGNORE INTO {table} ({columns}) VALUES ({holes})",
                self._encode_row(atom),
            )
        else:
            cursor = self._execute(f"INSERT OR IGNORE INTO {table} (present) VALUES (1)")
        if cursor.rowcount <= 0:
            return False
        if self._savepoints:
            self._journal.append((atom, True))
        self._notify(atom, True)
        return True

    def remove_atom(self, atom: Atom) -> bool:
        table = self._table(atom.predicate, atom.arity)
        if table is None:
            return False
        if atom.arity:
            where = " AND ".join(f"c{i} = ?" for i in range(atom.arity))
            cursor = self._execute(
                f"DELETE FROM {table} WHERE {where}", self._encode_row(atom)
            )
        else:
            cursor = self._execute(f"DELETE FROM {table}")
        if cursor.rowcount <= 0:
            return False
        if self._savepoints:
            self._journal.append((atom, False))
        self._notify(atom, False)
        return True

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def contains_atom(self, atom: Atom) -> bool:
        table = self._table(atom.predicate, atom.arity)
        if table is None:
            return False
        if atom.arity:
            where = " AND ".join(f"c{i} = ?" for i in range(atom.arity))
            rows = self._query_all(
                f"SELECT 1 FROM {table} WHERE {where} LIMIT 1", self._encode_row(atom)
            )
        else:
            rows = self._query_all(f"SELECT 1 FROM {table} LIMIT 1")
        return bool(rows)

    def signatures(self) -> set[tuple[str, int]]:
        # Fold in relations other connections catalogued since open (the
        # cross-connection counterpart of the ``_table`` re-probe).
        for table_id, predicate, arity in self._query_all(
            "SELECT id, predicate, arity FROM repro_relations"
        ):
            self._tables.setdefault((predicate, arity), table_id)
        return {
            signature for signature in self._tables if self.count(*signature)
        }

    def tuples(self, predicate: str, arity: int) -> Iterator[tuple[Term, ...]]:
        table = self._table(predicate, arity)
        if table is None:
            return
        if arity:
            columns = ", ".join(f"c{i}" for i in range(arity))
            rows = self._query_all(f"SELECT {columns} FROM {table} ORDER BY seq")
            for row in rows:
                yield tuple(decode_term(text) for text in row)
        else:
            if self._query_all(f"SELECT 1 FROM {table} LIMIT 1"):
                yield ()

    def count(self, predicate: str, arity: int) -> int:
        table = self._table(predicate, arity)
        if table is None:
            return 0
        [(count,)] = self._query_all(f"SELECT COUNT(*) FROM {table}")
        return count

    # ------------------------------------------------------------------ #
    # Savepoints
    # ------------------------------------------------------------------ #
    def savepoint(self) -> object:
        name = self._next_savepoint_name()
        self._execute(f"SAVEPOINT {name}")
        self._savepoints.append((name, len(self._journal)))
        return name

    def _pop_savepoint(self, token: object) -> int:
        if not self._savepoints or self._savepoints[-1][0] != token:
            raise StorageError(
                f"unknown savepoint token {token!r} (savepoints resolve innermost-first)"
            )
        return self._savepoints.pop()[1]

    def rollback_to(self, token: object) -> None:
        mark = self._pop_savepoint(token)
        self._execute(f"ROLLBACK TO {token}")
        self._execute(f"RELEASE {token}")
        # The rollback may have undone a CREATE TABLE issued inside the
        # savepoint: re-sync the catalogue cache from SQL truth.
        self._tables = {
            (predicate, arity): table_id
            for table_id, predicate, arity in self._execute(
                "SELECT id, predicate, arity FROM repro_relations"
            )
        }
        # Replay the journal inverse so listeners track the store.
        while len(self._journal) > mark:
            atom, added = self._journal.pop()
            self._notify(atom, not added)
        if not self._savepoints:
            self._journal.clear()

    def release(self, token: object) -> None:
        self._pop_savepoint(token)
        self._execute(f"RELEASE {token}")
        if not self._savepoints:
            self._journal.clear()

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        if self._connection is not None:
            self._connection.commit()
            self._connection.close()
            self._connection = None

    @property
    def closed(self) -> bool:
        return self._connection is None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self.closed else f"{len(self)} facts"
        return f"SqliteStore({self.path!r}, {state})"
