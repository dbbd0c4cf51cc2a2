"""QueryService unit tests: snapshot isolation, admission control,
budget mapping, writer-fault rollback, shutdown drain."""

from __future__ import annotations

import threading
import time

import pytest

from repro.config import EngineConfig
from repro.datalog import parse_atom
from repro.exceptions import BudgetError, NotGroundError, ReproError
from repro.fixpoint.interpretations import TruthValue
from repro.resilience import Budget, CancelToken, FaultInjectingStore, RetryPolicy
from repro.service import AdmissionRejected, QueryService, ServiceClosed
from repro.session import KnowledgeBase
from repro.storage import MemoryStore

WIN_MOVE = "wins(X) :- move(X, Y), not wins(Y)."
MOVES = {"move": [("a", "b"), ("b", "a"), ("b", "c")]}


def spawn(target, errors: list, daemon: bool = False) -> threading.Thread:
    """Run *target* on a started thread that records any exception it
    raises in *errors*, for the test to assert empty."""

    def run():
        try:
            target()
        except BaseException as error:  # noqa: BLE001 - surfaced by the test
            errors.append(error)

    thread = threading.Thread(target=run, daemon=daemon)
    thread.start()
    return thread


def join(thread: threading.Thread, timeout: float) -> None:
    """Join *thread* for at most *timeout* seconds; fail if it still runs."""
    thread.join(timeout)
    assert not thread.is_alive(), f"{thread.name} still running after {timeout}s"


def _slow_refreshes_with(kb, atom_text: str, seconds: float) -> None:
    """Make every refresh of *kb* whose facts hold *atom_text* sleep
    *seconds* before maintaining the model — maintenance then checks the
    ambient budget, so a deadline that passed during the sleep trips."""
    atom = parse_atom(atom_text)
    engine = kb._engine
    original = engine.refresh

    def slow(facts, changed=None):
        if atom in facts:
            time.sleep(seconds)
        return original(facts, changed)

    engine.refresh = slow


@pytest.fixture()
def service():
    kb = KnowledgeBase(WIN_MOVE, facts=MOVES)
    with QueryService(kb, queue_size=4, max_readers=4) as svc:
        yield svc
    kb.close()


class TestReads:
    def test_query_serves_published_epoch(self, service):
        result = service.query("wins")
        assert result["rows"] == [("b",)]
        assert result["epoch"] == 1
        assert result["pagination"]["total"] == 1

    def test_query_pagination_is_deterministic(self, service):
        service.submit(
            tuple(("assert", parse_atom(f"fact({i})")) for i in range(10))
        )
        page1 = service.query("fact", page=1, per_page=4)
        page2 = service.query("fact", page=2, per_page=4)
        page3 = service.query("fact", page=3, per_page=4)
        rows = page1["rows"] + page2["rows"] + page3["rows"]
        assert sorted(rows) == sorted((i,) for i in range(10))
        assert len(set(rows)) == 10, "pages must not overlap"
        assert page1["pagination"]["pages"] == 3

    def test_per_page_is_capped(self, service):
        result = service.query("wins", per_page=100000, max_page_size=100)
        assert result["pagination"]["per_page"] == 100

    def test_query_prefix_filter(self, service):
        result = service.query("move", ["b"])
        assert result["rows"] == [("b", "a"), ("b", "c")]

    def test_query_rejects_bad_truth(self, service):
        with pytest.raises(ReproError):
            service.query("wins", truth="maybe")

    def test_ask_and_answers(self, service):
        assert service.ask("wins(b)")["verdict"] == "true"
        answers = service.answers("wins(X)")
        assert answers["answers"] == [{"X": "b"}]

    def test_explain_matches_verdict(self, service):
        report = service.explain("wins(b)")
        assert report["verdict"] == "true"
        assert any("wins(b)" in line for line in report["explanation"])

    def test_read_gate_sheds_when_exhausted(self, service):
        tickets = [service.admit_read() for _ in range(service.max_readers)]
        with pytest.raises(AdmissionRejected):
            service.admit_read()
        for ticket in tickets:
            ticket.__exit__(None, None, None)
        with service.admit_read():
            pass
        assert service.stats()["counters"]["service.shed_reads"] == 1


class TestWrites:
    def test_write_bumps_epoch_and_is_visible(self, service):
        before = service.snapshot()
        outcome = service.assert_fact(parse_atom("move(c, d)"))
        assert outcome.changed == 1
        assert outcome.epoch == before.epoch + 1
        after = service.snapshot()
        assert after.epoch == outcome.epoch
        # The old snapshot still serves its own epoch's model (isolation).
        assert before.rows("wins") == [("b",)]
        # New graph a<->b plus b->c->d: c wins outright, a/b go undefined.
        assert after.rows("wins") == [("c",)]
        assert after.rows("wins", truth=TruthValue.UNDEFINED) == [("a",), ("b",)]
        assert ("c", "d") in set(after.rows("move"))

    def test_batch_is_atomic(self, service):
        outcome = service.submit(
            (
                ("assert", parse_atom("move(c, d)")),
                ("assert", parse_atom("move(d, e)")),
                ("retract", parse_atom("move(c, d)")),
            )
        )
        assert outcome.applied == 3
        rows = set(service.query("move")["rows"])
        assert ("d", "e") in rows and ("c", "d") not in rows

    def test_rejects_non_ground_and_unknown_ops(self, service):
        with pytest.raises(NotGroundError):
            service.submit((("assert", parse_atom("move(X, b)")),))
        with pytest.raises(ReproError):
            service.submit((("upsert", parse_atom("move(a, b)")),))

    def test_queue_full_sheds_with_retry_after(self):
        kb = KnowledgeBase(WIN_MOVE, facts=MOVES)
        service = QueryService(kb, queue_size=1)
        service.start()
        try:
            # Park the writer on a slow request so later ones pile up.
            release = threading.Event()
            slow = threading.Event()

            original = service._apply

            def stalled_apply(request):
                slow.set()
                release.wait(5)
                return original(request)

            service._apply = stalled_apply
            errors: list = []
            first = spawn(lambda: service.assert_fact(parse_atom("move(x, y)")), errors)
            assert slow.wait(5)
            # Queue slot 1 fills; the next submit must shed immediately.
            second = spawn(lambda: service.assert_fact(parse_atom("move(y, z)")), errors)
            deadline = time.monotonic() + 5
            while service._queue.qsize() < 1 and time.monotonic() < deadline:
                time.sleep(0.01)
            with pytest.raises(AdmissionRejected) as shed:
                service.assert_fact(parse_atom("move(z, w)"))
            assert shed.value.retry_after >= 1
            release.set()
            join(first, 5)
            join(second, 5)
            assert not errors, errors
            assert service.stats()["counters"]["service.shed_writes"] == 1
        finally:
            release.set()
            service.stop()
            kb.close()

    def test_budget_deadline_maps_to_budget_error(self, service):
        budget = Budget(max_seconds=1e-9, token=CancelToken())
        with pytest.raises(BudgetError):
            service.submit((("assert", parse_atom("move(p, q)")),), budget=budget)
        # The service recovered: the next write applies normally and the
        # deadline-tripped one never reached the published model.
        assert ("p", "q") not in set(service.query("move")["rows"])
        outcome = service.assert_fact(parse_atom("move(q, r)"))
        assert ("q", "r") in set(service.query("move")["rows"])
        assert outcome.epoch == service.snapshot().epoch

    def test_session_budget_keeps_the_request_deadline(self):
        """The session's own budget, started inside the refresh, must not
        replace the request's tighter one: the write that overran its
        deadline is rolled back, not published behind the client's 504."""
        kb = KnowledgeBase(
            WIN_MOVE, facts=MOVES, config=EngineConfig(budget=Budget(max_seconds=30))
        )
        service = QueryService(kb).start()
        try:
            _slow_refreshes_with(kb, "move(c, d)", 0.6)
            budget = Budget(max_seconds=0.2, token=CancelToken())
            with pytest.raises(BudgetError):
                service.assert_fact(parse_atom("move(c, d)"), budget=budget)
        finally:
            service.stop()  # drains: the writer is done with the write
        assert service.snapshot().epoch == 1
        assert ("c", "d") not in set(kb.query("move"))
        kb.close()


class TestWriterFaults:
    def _faulting_service(self, script, retries=0):
        inner = MemoryStore()
        store = FaultInjectingStore(inner, script=script)
        store.armed = False
        kb = KnowledgeBase(WIN_MOVE, facts=MOVES, store=store)
        service = QueryService(
            kb,
            retry_policy=RetryPolicy(max_retries=retries, base_delay=0.0, jitter=0.0),
        )
        service.start()
        store.armed = True
        return kb, store, service

    def test_persistent_fault_rolls_back_and_keeps_epoch(self):
        # Every future add fails: the write must fail cleanly and the
        # published snapshot must stay at the last good epoch.
        kb, store, service = self._faulting_service(
            {"add": set(range(4, 40))}, retries=1
        )
        try:
            before = service.snapshot()
            oracle = before.rows("wins")
            with pytest.raises(Exception) as caught:
                service.assert_fact(parse_atom("move(c, d)"))
            assert "injected" in str(caught.value)
            after = service.snapshot()
            assert after is before, "failed write must not publish a new epoch"
            assert after.rows("wins") == oracle
            # Recovery: disarm and write again.
            store.armed = False
            outcome = service.assert_fact(parse_atom("move(c, d)"))
            assert outcome.epoch == before.epoch + 1
            stats = service.stats()["counters"]
            assert stats["service.write_failures"] == 1
            assert stats["service.write_retries"] == 1
        finally:
            service.stop()
            kb.close()

    def test_transient_fault_is_retried_to_success(self):
        # One scripted fault, one retry budget: the write succeeds on the
        # second attempt without the client ever seeing the fault.
        kb, store, service = self._faulting_service({"add": {4}}, retries=2)
        try:
            outcome = service.assert_fact(parse_atom("move(c, d)"))
            assert outcome.changed == 1
            assert ("c", "d") in set(service.query("move")["rows"])
            counters = service.stats()["counters"]
            assert counters["service.write_retries"] == 1
            assert "service.write_failures" not in counters
        finally:
            service.stop()
            kb.close()


class TestLifecycle:
    def test_stop_drains_admitted_writes(self):
        kb = KnowledgeBase(WIN_MOVE, facts=MOVES)
        service = QueryService(kb).start()
        results = []
        errors: list = []
        thread = spawn(
            lambda: results.append(service.assert_fact(parse_atom("move(m, n)"))), errors
        )
        try:
            join(thread, 5)
        finally:
            service.stop(drain=True)
        assert not errors, errors
        assert results and results[0].changed == 1
        # After the writer exits, the KB is the caller's again.
        assert ("m", "n") in {tuple(r) for r in kb.query("move")}
        kb.close()

    def test_closed_service_rejects_submissions(self, service):
        service.stop()
        with pytest.raises(ServiceClosed):
            service.submit((("assert", parse_atom("move(z, z)")),))
        with pytest.raises(ServiceClosed):
            service.admit_read()

    def test_stats_report_the_published_fact_count(self, service):
        stats = service.stats()
        assert stats["epoch"] == 1
        assert stats["store_rows"] == stats["facts"] == 3
        assert "relations" not in stats
        outcome = service.submit((("assert", parse_atom("move(c, d)")),))
        stats = service.stats()
        assert stats["epoch"] == outcome.epoch == 2
        assert stats["store_rows"] == stats["facts"] == 4
        assert service.health()[1]["store_rows"] == 4

    def test_health_and_readiness(self, service):
        healthy, health = service.health()
        assert healthy and health["store"] == "ok" and health["writer"] == "alive"
        assert health["store_rows"] == service.stats()["store_rows"]
        ready, readiness = service.readiness()
        assert ready and readiness["backlog"] == 0
        service.stop()
        ready, readiness = service.readiness()
        assert not ready and readiness["draining"]

    def test_health_stays_ok_under_writer_churn(self):
        """Regression: health() used to probe the live store from the
        calling thread, which raced the writer's mutations and made the
        liveness probe spuriously unhealthy under write load."""
        kb = KnowledgeBase(WIN_MOVE, facts=MOVES)
        service = QueryService(kb).start()
        stop = threading.Event()
        failures: list[dict] = []
        errors: list = []

        def churn():
            i = 0
            while not stop.is_set():
                service.assert_fact(parse_atom(f"fact({i})"))
                i += 1

        writer = spawn(churn, errors)
        try:
            deadline = time.monotonic() + 1.0
            while time.monotonic() < deadline and not failures:
                healthy, report = service.health()
                if not healthy:
                    failures.append(report)
        finally:
            stop.set()
            writer.join(30)
            service.stop()
            kb.close()
        assert not writer.is_alive(), "churn writer still running after 30s"
        assert not errors, errors
        assert not failures, f"health flapped under churn: {failures[0]}"

    def test_request_enqueued_behind_sentinel_is_failed_not_stranded(self):
        """Regression for the submit()/stop() race: a request that lands
        behind the shutdown sentinel must be failed by the writer's drain
        backstop, never left blocking its submitter forever."""
        from repro.service.core import _SHUTDOWN, _WriteRequest

        kb = KnowledgeBase(WIN_MOVE, facts=MOVES)
        service = QueryService(kb).start()
        release = threading.Event()
        entered = threading.Event()
        original = service._apply

        def stalled_apply(request):
            entered.set()
            release.wait(5)
            return original(request)

        service._apply = stalled_apply
        errors: list = []
        busy = spawn(lambda: service.assert_fact(parse_atom("move(c, d)")), errors)
        try:
            assert entered.wait(5)
            # While the writer is parked mid-apply, recreate the lost
            # interleaving by hand: closed flag set, sentinel enqueued,
            # then a straggler request behind it.
            stranded = _WriteRequest((("assert", parse_atom("move(z, z)")),), None)
            service._closed = True
            service._queue.put(_SHUTDOWN)
            service._queue.put(stranded)
            release.set()
            assert stranded.done.wait(5), "writer stranded the request"
            assert isinstance(stranded.error, ServiceClosed)
            assert service._writer is not None
            join(service._writer, 5)
            join(busy, 5)
            assert not errors, errors
            # The stranded write never reached the store; the stalled one did.
            rows = {tuple(row) for row in kb.query("move")}
            assert ("c", "d") in rows and ("z", "z") not in rows
        finally:
            release.set()
            busy.join(5)
            service.stop()
            kb.close()


class TestSnapshotConsistency:
    def test_concurrent_readers_never_observe_torn_snapshots(self):
        """The acceptance property, in-process: reader threads hammering
        the service during writer churn always see a (epoch, model) pair
        that matches the oracle solve for that epoch's EDB."""
        kb = KnowledgeBase(WIN_MOVE, facts=MOVES)
        service = QueryService(kb).start()
        # Writer thread: grow then shrink a chain; record each epoch's
        # expected 'wins' relation from the returned outcome + a fresh
        # oracle KB solved over the same facts.
        oracles: dict[int, list] = {1: service.snapshot().rows("wins")}
        oracle_lock = threading.Lock()
        stop = threading.Event()
        errors: list[str] = []
        crashes: list = []

        def writer():
            nodes = ["c", "d", "e", "f", "g"]
            facts = [tuple(pair) for pair in MOVES["move"]]
            for i in range(len(nodes) - 1):
                atom = parse_atom(f"move({nodes[i]}, {nodes[i + 1]})")
                outcome = service.assert_fact(atom)
                facts.append((nodes[i], nodes[i + 1]))
                oracle_kb = KnowledgeBase(WIN_MOVE, facts={"move": list(facts)})
                with oracle_lock:
                    oracles[outcome.epoch] = oracle_kb.snapshot().rows("wins")
                oracle_kb.close()
                time.sleep(0.005)
            stop.set()

        def reader():
            while not stop.is_set():
                result = service.query("wins")
                with oracle_lock:
                    expected = oracles.get(result["epoch"])
                if expected is None:
                    continue  # oracle not recorded yet for a brand-new epoch
                if result["rows"] != expected:
                    errors.append(
                        f"epoch {result['epoch']}: got {result['rows']}, "
                        f"expected {expected}"
                    )
                    return

        writer_thread = spawn(writer, crashes)
        reader_threads = [spawn(reader, crashes) for _ in range(4)]
        try:
            join(writer_thread, 30)
        finally:
            stop.set()
            for thread in reader_threads:
                thread.join(10)
            service.stop()
            kb.close()
        assert not any(thread.is_alive() for thread in reader_threads)
        assert not crashes, crashes
        assert not errors, errors[0]


class TestCoalescedWrites:
    """The writer drains its backlog into one atomically-applied window
    with a single maintenance pass."""

    def _park_writer(self, service):
        """Patch the single-request path so the first apply blocks until
        released, letting a backlog build behind the busy writer."""
        parked = threading.Event()
        release = threading.Event()
        original = service._apply_and_finish

        def slow_first(request):
            service._apply_and_finish = original
            parked.set()
            release.wait(10)
            return original(request)

        service._apply_and_finish = slow_first
        return parked, release

    def _submit_async(self, service, atom_text, sink, errors, budget=None):
        return spawn(
            lambda: sink.append(service.assert_fact(parse_atom(atom_text), budget=budget)),
            errors,
        )

    def _await_backlog(self, service, depth):
        deadline = time.monotonic() + 5
        while service._queue.qsize() < depth and time.monotonic() < deadline:
            time.sleep(0.005)
        assert service._queue.qsize() >= depth, "backlog never formed"

    def test_backlog_applies_as_one_window_with_shared_epoch(self):
        kb = KnowledgeBase(WIN_MOVE, facts=MOVES)
        service = QueryService(kb, queue_size=8).start()
        first: list = []
        window: list = []
        errors: list = []
        try:
            parked, release = self._park_writer(service)
            opener = self._submit_async(service, "move(c, d)", first, errors)
            assert parked.wait(5)
            backlog = [
                self._submit_async(service, f"move(d, e{i})", window, errors)
                for i in range(3)
            ]
            self._await_backlog(service, 3)
            release.set()
            for thread in [opener, *backlog]:
                join(thread, 10)
            assert not errors, errors
            assert len(first) == 1 and len(window) == 3
            # One refresh for the whole window: every outcome carries the
            # same published epoch, one past the parked write's.
            epochs = {outcome.epoch for outcome in window}
            assert epochs == {first[0].epoch + 1}
            counters = service.stats()["counters"]
            assert counters["service.coalesced_windows"] == 1
            assert counters["service.coalesced_requests"] == 3
            assert counters["service.writes_applied"] == 4
            rows = {tuple(r) for r in service.query("move")["rows"]}
            assert {("c", "d"), ("d", "e0"), ("d", "e1"), ("d", "e2")} <= rows
        finally:
            release.set()
            service.stop()
            kb.close()

    def test_window_is_capped_at_max_coalesce_window(self, monkeypatch):
        """A backlog deeper than the cap is applied as a full window and
        then the remainder, each with its own epoch."""
        monkeypatch.setattr("repro.service.core.MAX_COALESCE_WINDOW", 2)
        kb = KnowledgeBase(WIN_MOVE, facts=MOVES)
        service = QueryService(kb, queue_size=8).start()
        first: list = []
        rest: list = []
        errors: list = []
        try:
            parked, release = self._park_writer(service)
            opener = self._submit_async(service, "move(c, d)", first, errors)
            assert parked.wait(5)
            backlog = [
                self._submit_async(service, f"move(d, e{i})", rest, errors)
                for i in range(3)
            ]
            self._await_backlog(service, 3)
            release.set()
            for thread in [opener, *backlog]:
                join(thread, 10)
            assert not errors, errors
            assert len(first) == 1 and len(rest) == 3
            # Two requests share the capped window's epoch; the third,
            # left queued, is applied on its own one epoch later.
            epochs = sorted(outcome.epoch for outcome in rest)
            assert epochs == [first[0].epoch + 1] * 2 + [first[0].epoch + 2]
            counters = service.stats()["counters"]
            assert counters["service.coalesced_windows"] == 1
            assert counters["service.coalesced_requests"] == 2
            assert counters["service.writes_applied"] == 4
        finally:
            release.set()
            service.stop()
            kb.close()

    def test_empty_backlog_gives_one_epoch_per_write(self, service):
        epochs = [
            service.assert_fact(parse_atom(f"move(d, e{i})")).epoch for i in range(3)
        ]
        assert epochs == [2, 3, 4]
        counters = service.stats()["counters"]
        assert "service.coalesced_windows" not in counters
        assert counters["service.writes_applied"] == 3

    def test_failed_window_falls_back_to_per_request_apply(self):
        inner = MemoryStore()
        store = FaultInjectingStore(inner, script={"add": set(range(5, 60))})
        store.armed = False
        kb = KnowledgeBase(WIN_MOVE, facts=MOVES, store=store)
        service = QueryService(
            kb, retry_policy=RetryPolicy(max_retries=0, base_delay=0.0, jitter=0.0)
        ).start()
        first: list = []
        window: list = []
        errors: list = []
        try:
            parked, release = self._park_writer(service)
            opener = self._submit_async(service, "move(c, d)", first, errors)
            assert parked.wait(5)
            backlog = [
                self._submit_async(service, f"move(d, e{i})", window, errors)
                for i in range(2)
            ]
            self._await_backlog(service, 2)
            good_epoch_floor = service.snapshot().epoch
            store.armed = True  # every further add faults
            release.set()
            for thread in [opener, *backlog]:
                join(thread, 10)
            # The window apply failed, rolled back, and each request was
            # retried individually — and failed with the same injected
            # fault it would have seen without coalescing.
            assert len(window) == 0 and len(errors) == 2
            assert all("injected" in str(error) for error in errors)
            counters = service.stats()["counters"]
            assert counters["service.coalesce_fallbacks"] == 1
            assert counters.get("service.coalesced_windows") is None
            assert counters["service.write_failures"] == 2
            # The published model never saw the torn window.
            assert service.snapshot().epoch >= good_epoch_floor
            store.armed = False
            recovered = service.assert_fact(parse_atom("move(d, f)"))
            assert recovered.changed == 1
        finally:
            release.set()
            store.armed = False
            service.stop()
            kb.close()

    def test_window_honours_each_request_budget(self):
        """A window runs under its requests' budgets: the one that overran
        its deadline rolls the window back, and the per-request fallback
        fails only that request."""
        kb = KnowledgeBase(WIN_MOVE, facts=MOVES)
        service = QueryService(kb, queue_size=8).start()
        plain: list = []
        timed: list = []
        errors: list = []
        try:
            parked, release = self._park_writer(service)
            opener = self._submit_async(service, "move(c, d)", plain, errors)
            assert parked.wait(5)
            budget = Budget(max_seconds=0.3, token=CancelToken())
            backlog = [
                self._submit_async(service, "move(d, e)", plain, errors),
                self._submit_async(service, "move(e, f)", timed, errors, budget=budget),
            ]
            self._await_backlog(service, 2)
            # Only refreshes that include the timed write are slow.
            _slow_refreshes_with(kb, "move(e, f)", 0.6)
            release.set()
            for thread in [opener, *backlog]:
                join(thread, 10)
        finally:
            release.set()
            service.stop()
        assert len(plain) == 2 and not timed
        assert len(errors) == 1 and isinstance(errors[0], BudgetError)
        rows = set(kb.query("move"))
        assert ("d", "e") in rows and ("e", "f") not in rows
        assert service.stats()["counters"]["service.coalesce_fallbacks"] == 1
        kb.close()
