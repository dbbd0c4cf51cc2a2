"""FaultInjectingStore and the session-layer recovery contracts.

The injected failures are ordinary :class:`~repro.exceptions.StorageError`
subclasses raised *before* the wrapped store mutates, so these tests
exercise exactly the recovery paths a flaky real backend would: mid-batch
rollback, aborted refreshes falling back to a full re-solve, and read
failures surfacing through grounding.
"""

from __future__ import annotations

import pytest

from repro import KnowledgeBase, MemoryStore, solve
from repro.datalog import parse_atom
from repro.datalog.rules import Program
from repro.engine.solver import solve_configured
from repro.exceptions import StorageError
from repro.resilience import FaultInjectingStore, InjectedFault

pytestmark = pytest.mark.faultinject

WIN_MOVE = """
wins(X) :- move(X, Y), not wins(Y).
"""

EDGES = [("a", "b"), ("b", "a"), ("b", "c")]


def _model_lines(solution):
    interp = solution.interpretation
    return sorted(
        [f"+{atom}" for atom in interp.true_atoms]
        + [f"-{atom}" for atom in interp.false_atoms]
    )


class TestFaultScheduling:
    def test_script_fails_exact_occurrence(self):
        store = FaultInjectingStore(MemoryStore(), script={"add": {2}})
        store.add_atom(parse_atom("p(1)"))
        with pytest.raises(InjectedFault) as excinfo:
            store.add_atom(parse_atom("p(2)"))
        assert excinfo.value.operation == "add"
        assert excinfo.value.occurrence == 2
        # The failed call never reached the inner store.
        assert not store.contains_atom(parse_atom("p(2)"))
        # Occurrences are counted per call, so the next add is #3 — clean.
        assert store.add_atom(parse_atom("p(2)"))

    def test_injected_fault_is_storage_error(self):
        assert issubclass(InjectedFault, StorageError)

    def test_unknown_operation_rejected(self):
        with pytest.raises(ValueError):
            FaultInjectingStore(MemoryStore(), script={"flush": {1}})

    def test_seeded_schedule_is_reproducible(self):
        def run(seed):
            store = FaultInjectingStore(MemoryStore(), seed=seed, rate=0.3)
            outcomes = []
            for i in range(50):
                try:
                    store.add_atom(parse_atom(f"p({i})"))
                    outcomes.append("ok")
                except InjectedFault:
                    outcomes.append("fault")
            return outcomes

        assert run(7) == run(7)
        assert "fault" in run(7)
        assert run(7) != run(8)

    def test_max_faults_bounds_seeded_schedule(self):
        store = FaultInjectingStore(MemoryStore(), seed=3, rate=1.0, max_faults=2)
        failures = 0
        for i in range(10):
            try:
                store.add_atom(parse_atom(f"p({i})"))
            except InjectedFault:
                failures += 1
        assert failures == 2

    def test_disarm_stops_faults_but_keeps_counting(self):
        store = FaultInjectingStore(MemoryStore(), script={"add": {1, 2}})
        store.armed = False
        assert store.add_atom(parse_atom("p(1)"))
        assert store.add_atom(parse_atom("p(2)"))
        assert store.counts["add"] == 2
        assert store.faults == []

    def test_stats_reports_injector_state(self):
        store = FaultInjectingStore(MemoryStore(), script={"remove": {1}})
        store.add_atom(parse_atom("p(1)"))
        with pytest.raises(InjectedFault):
            store.remove_atom(parse_atom("p(1)"))
        stats = store.stats()
        assert stats["fault_injector"]["counts"]["remove"] == 1
        assert ("remove", 1) in stats["fault_injector"]["faults"]
        # The wrapper's stats ride on top of the inner store's.
        assert stats["backend"] == "MemoryStore"

    def test_read_fault_surfaces_from_grounding(self):
        # The first solve's grounding reads the store: its first relation
        # read is the injected fault.
        store = FaultInjectingStore(MemoryStore(), script={"read": {1}})
        kb = KnowledgeBase(WIN_MOVE, store=store)
        kb.load({"move": EDGES})
        with pytest.raises(InjectedFault) as excinfo:
            list(kb.query("wins"))
        assert excinfo.value.operation == "read"
        # The store itself is intact: disarmed, the same session recovers.
        store.armed = False
        assert sorted(kb.query("wins")) == [("b",)]

    def test_read_fault_fails_a_one_shot_solve(self):
        store = FaultInjectingStore(MemoryStore(), script={"read": {1}})
        store.load({"move": EDGES})
        with pytest.raises(InjectedFault):
            solve(WIN_MOVE, store=store)
        store.armed = False
        assert solve(WIN_MOVE, store=store).relation("wins") == {("b",)}


class TestBatchRollbackUnderFaults:
    def _fresh_kb(self, script):
        store = FaultInjectingStore(MemoryStore(), script=script)
        kb = KnowledgeBase(WIN_MOVE, store=store)
        kb.load({"move": EDGES})
        return kb, store

    def _oracle(self, kb):
        """A from-scratch solve of the KB's current program, as lines."""
        return _model_lines(solve(kb.solution.program, config=kb.config))

    def test_mid_batch_add_fault_rolls_back_everything(self):
        kb, store = self._fresh_kb({"add": {5}})  # 3 loads + assert + assert
        before_facts = sorted(str(atom) for atom in kb.facts())
        before_model = _model_lines(kb.solution)
        with pytest.raises(InjectedFault):
            with kb.batch():
                kb.assert_fact("move", "c", "d")
                kb.assert_fact("move", "d", "a")  # add #5 — injected fault
        # Every mutation of the batch is rolled back...
        assert sorted(str(atom) for atom in kb.facts()) == before_facts
        # ...and the model equals both the pre-batch model and a fresh
        # differential solve of the same program.
        store.armed = False
        assert _model_lines(kb.solution) == before_model
        assert _model_lines(kb.solution) == self._oracle(kb)

    def test_mid_batch_remove_fault_rolls_back(self):
        kb, store = self._fresh_kb({"remove": {1}})
        before_facts = sorted(str(atom) for atom in kb.facts())
        with pytest.raises(InjectedFault):
            with kb.batch():
                kb.assert_fact("move", "c", "d")
                kb.retract_fact("move", "a", "b")
        assert sorted(str(atom) for atom in kb.facts()) == before_facts
        store.armed = False
        assert _model_lines(kb.solution) == self._oracle(kb)

    def test_savepoint_fault_leaves_session_usable(self):
        kb, store = self._fresh_kb({"savepoint": {1}})
        with pytest.raises(InjectedFault):
            with kb.batch():
                kb.assert_fact("move", "c", "d")  # pragma: no cover - not reached
        store.armed = False
        # The failed batch never opened, so plain mutations still work.
        kb.assert_fact("move", "c", "d")
        assert ("c", "d") in set(kb.query("move"))
        assert _model_lines(kb.solution) == self._oracle(kb)

    def test_regrounding_read_fault_then_recovery_serves_scratch_model(self):
        # Retracting more facts than remain makes the next refresh ground
        # afresh, and the fresh grounding's read of the store fails.  The
        # KB must keep the change queued and, once the storage layer heals,
        # serve the from-scratch model without missing a rule instance.
        rules = WIN_MOVE + "two(X, Z) :- move(X, Y), move(Y, Z).\n"
        store = FaultInjectingStore(MemoryStore(), script={"read": set(range(1, 100))})
        store.armed = False  # every read is scripted; arm only for the refresh
        kb = KnowledgeBase(rules, store=store)
        kb.load({"move": EDGES})
        kb.solution
        churn = [(f"x{i}", f"x{i + 1}") for i in range(70)]
        kb.load({"move": churn})
        assert kb.is_true("two", "x0", "x2")
        with kb.batch():
            for move in churn:
                kb.retract_fact("move", *move)
        kb.assert_fact("move", "c", "d")
        reads = store.counts["read"]
        store.armed = True
        with pytest.raises(InjectedFault):
            kb.solution  # the re-grounding's read of the store
        assert store.counts["read"] == reads + 1
        store.armed = False
        oracle = solve_configured(Program.union(kb.store.as_program(), kb.rules), kb.config)
        assert _model_lines(kb.solution) == _model_lines(oracle)
        assert kb.is_true("two", "b", "d") and not kb.is_true("two", "x0", "x2")
        assert kb.last_update.mode != "delta"
