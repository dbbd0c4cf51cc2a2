"""How a session publishes an epoch: the view shares every predicate the
refresh did not move, and the rest of the solution is lazy."""

from __future__ import annotations

import sys
import threading

import pytest

from repro.config import EngineConfig
from repro.core.context import build_context
from repro.datalog.rules import Program
from repro.datalog.terms import Constant
from repro.engine.solver import solve_configured
from repro.fixpoint.interpretations import TruthValue
from repro.session import IncrementalEngine, KnowledgeBase
from repro.storage import MemoryStore

RULES = """
wins(X) :- move(X, Y), not wins(Y).
reach(X, Y) :- edge(X, Y).
reach(X, Z) :- reach(X, Y), edge(Y, Z).
"""
FACTS = {
    "move": [("a", "b"), ("b", "a"), ("b", "c")],
    "edge": [(1, 2), (2, 3)],
    "label": [("x",), ("y",)],
}


GAME = "move(a, b). move(b, a). move(b, c).\n" + RULES


def _ground(text: str, facts) -> str:
    """*text* grounded over *facts*, as a program text without variables."""
    kb = KnowledgeBase(text, facts=facts)
    rules = "\n".join(str(rule.source) for rule in kb.solution.context.rules)
    kb.close()
    return rules


def _entries(view):
    return {name: view.predicate(name) for name in view}


def _visible(entry):
    return entry.true_atoms, entry.undefined_atoms, entry.facts


@pytest.mark.parametrize("ground", [False, True], ids=["non-ground", "ground"])
def test_one_flip_shares_every_unflipped_predicate(ground):
    rules = RULES
    if ground:
        # Ground over the facts as they are after the flip below, so the
        # ground rules already cover it.
        grown = {**FACTS, "move": FACTS["move"] + [("c", "d")]}
        rules = _ground(RULES, grown)
    kb = KnowledgeBase(rules, facts=FACTS)
    before = _entries(kb.solution.view)
    kb.assert_fact("move", "c", "d")
    after = _entries(kb.solution.view)
    assert kb.last_update.mode == "delta"

    flipped = {
        name
        for name in before.keys() | after.keys()
        if name not in before
        or name not in after
        or _visible(before[name]) != _visible(after[name])
    }
    assert flipped == {"move", "wins"}
    for name in before.keys() & after.keys():
        if name in flipped:
            assert after[name] is not before[name], name
        else:
            assert after[name] is before[name], name
    kb.close()


def test_publication_reads_no_whole_model_structure(monkeypatch):
    kb = KnowledgeBase(RULES, facts=FACTS)
    kb.solution.view

    def whole_model(self):
        raise AssertionError("an epoch was published from an O(model) structure")

    monkeypatch.setattr(IncrementalEngine, "model", property(whole_model))
    monkeypatch.setattr(IncrementalEngine, "base", property(whole_model))
    kb.assert_fact("move", "c", "d")
    assert set(kb.query("wins")) == {("c",)}
    assert kb.snapshot().rows("wins", truth=TruthValue.UNDEFINED) == [("a",), ("b",)]
    solution = kb.solution
    assert not {"program", "base", "interpretation", "context"} & vars(solution).keys()
    monkeypatch.undo()

    program = Program.union(kb.store.as_program(), kb.rules)
    scratch = solve_configured(program, kb.config)
    assert solution.program == program
    assert solution.interpretation.true_atoms == scratch.interpretation.true_atoms
    assert solution.base == kb._engine.base
    assert solution.interpretation == kb._engine.model
    assert solution.context.facts == frozenset(kb.store.facts())
    kb.close()


@pytest.mark.parametrize("ground", [False, True], ids=["non-ground", "ground"])
def test_an_epochs_context_program_holds_its_facts(ground):
    rules = _ground(RULES, FACTS) if ground else RULES
    kb = KnowledgeBase(rules, facts=FACTS)
    assert kb.is_incremental
    solution = kb.solution
    # The epoch's ground program: its facts as fact rules, then the rules.
    assert set(solution.context.program) == set(build_context(solution.program).program)
    kb.retract_fact("move", "b", "c")
    context = kb.solution.context
    assert kb.last_update.mode == "delta"
    fact_rules = {rule.head for rule in context.program if rule.is_fact}
    assert fact_rules == context.facts == set(kb.store.facts())
    assert len(fact_rules) == sum(map(len, FACTS.values())) - 1
    kb.close()


def test_published_solutions_are_immutable():
    kb = KnowledgeBase(RULES, facts=FACTS)
    one_shot = solve_configured(Program.union(kb.store.as_program(), kb.rules), kb.config)
    for solution in (kb.solution, one_shot):
        solution.program  # a lazily computed field is cached, not assignable
        for name in ("program", "view", "semantics"):
            with pytest.raises(AttributeError):
                setattr(solution, name, None)
        with pytest.raises(AttributeError):
            del solution.base
    kb.close()


def test_solutions_compare_by_identity():
    # A value comparison would force a session epoch's lazy fields.
    first, second = (solve_configured(GAME, EngineConfig()) for _ in range(2))
    assert first == first and first != second and hash(first) == object.__hash__(first)


def test_racing_readers_fill_an_epochs_lazy_fields_alike():
    """Reader threads that race to derive an epoch's rows, page order and
    lazy solution fields all get the values a single reader gets."""
    kb = KnowledgeBase(RULES, facts=FACTS)
    kb.solution.view.predicate("wins").order()
    kb.assert_fact("move", "c", "d")
    kb.assert_fact("edge", 3, 4)
    snapshot = kb.snapshot()
    kb.retract_fact("move", "b", "c")  # the session moves on; the snapshot must not
    kb.solution
    grown = {**FACTS, "move": FACTS["move"] + [("c", "d")], "edge": FACTS["edge"] + [(3, 4)]}
    oracle = KnowledgeBase(RULES, facts=grown)
    expected = _reads(oracle.snapshot())
    oracle.close()
    results: list = []
    errors: list = []

    def read() -> None:
        try:
            results.append(_reads(snapshot))
        except BaseException as error:  # noqa: BLE001 - reported below
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert not errors, errors
    assert results == [expected] * len(threads)
    kb.close()


def _reads(snapshot):
    solution = snapshot.solution
    return (
        {name: snapshot.rows(name) for name in ("wins", "reach", "move", "edge", "label")},
        snapshot.rows("wins", truth=TruthValue.UNDEFINED),
        snapshot.relation("reach"),
        sorted(map(str, solution.interpretation.true_atoms)),
        sorted(map(str, solution.interpretation.false_atoms)),
        sorted(map(str, solution.base)),
        sorted(map(str, solution.program)),
        len(solution.context.rules),
    )


def test_a_retained_snapshot_does_not_stop_store_compaction():
    # An epoch holds no view of the store, so a snapshot kept by a reader
    # leaves a MemoryStore holding only the rows that are still asserted.
    store = MemoryStore()
    kb = KnowledgeBase("q(X) :- p(X).", facts={"p": [(i,) for i in range(300)]}, store=store)
    snapshot = kb.snapshot()
    for i in range(250):
        kb.retract_fact("p", i)
    assert store.count("p", 1) == 50
    assert list(store.tuples("p", 1)) == [(Constant(i),) for i in range(250, 300)]
    assert len(kb.query("q")) == 50
    assert snapshot.fact_count == 300 and len(snapshot.rows("q")) == 300
    kb.close()
