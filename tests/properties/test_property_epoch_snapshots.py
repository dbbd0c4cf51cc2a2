"""Property: every published epoch stays exact after the session moves on.

A session publishes each epoch's model as an immutable per-predicate view
derived from the previous epoch's (:mod:`repro.engine.view`): unflipped
predicates are shared, flipped ones rebuilt copy-on-write, and the
solution's program, base, interpretation and context are computed lazily.
This suite keeps the :class:`~repro.session.SessionSnapshot` of *every*
epoch of a random churn, and only after the whole churn checks each one
against a from-scratch solve of its own epoch's program — so a later
epoch that wrote through a shared structure, or a lazy field computed
from state that moved on, shows up as a wrong old snapshot.

The churn mixes single operations, batches, rolled-back batches and
refreshes that fail (a step budget that trips, an injected fault in the
maintenance pass) and are retried.  Non-ground sessions fold new rule
instances in, merge components when a cycle closes (the carry-over path)
and cross the re-grounding threshold (``garbage_dominates``).  Both the
memory and the SQLite store are covered.

The oracle's program is built from the rules and the store's facts, never
from the published view.
"""

from __future__ import annotations

from unittest import mock

import pytest

try:
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st
except ImportError:  # pragma: no cover - environment guard
    pytest.skip("hypothesis is not installed", allow_module_level=True)

from repro.config import EngineConfig
from repro.datalog.atoms import Atom
from repro.datalog.rules import Program
from repro.datalog.terms import Constant
from repro.delta import DeltaMaintainer
from repro.engine.solver import solve_configured
from repro.exceptions import BudgetExceeded
from repro.fixpoint.interpretations import TruthValue
from repro.resilience import Budget, metered
from repro.session import KnowledgeBase
from repro.storage import MemoryStore, SqliteStore
from repro.workloads import random_propositional_program

ATOM_POOL = 12
#: Enough retracted-but-grounded facts to pass the re-grounding threshold
#: (more than 64, and more than the live facts).
SWEEP = 70

NON_GROUND = """
wins(X) :- move(X, Y), not wins(Y).
reach(X, Y) :- move(X, Y).
reach(X, Z) :- reach(X, Y), move(Y, Z).
seen(X) :- junk(X).
"""
_MOVES = [Atom("move", (Constant(x), Constant(y))) for x in "abcd" for y in "abcd"]
_PROPOSITIONS = [Atom(f"p{i}", ()) for i in range(ATOM_POOL)] + [
    Atom("fresh_a", ()),
    Atom("fresh_b", ()),
]


class _Rollback(Exception):
    """Aborts a batch on purpose."""


def _steps(atoms):
    single = st.tuples(st.booleans(), st.sampled_from(atoms))
    group = st.lists(single, min_size=1, max_size=4)
    step = st.one_of(
        single.map(lambda op: ("op", [op])),
        group.map(lambda ops: ("batch", ops)),
        group.map(lambda ops: ("rollback", ops)),
        group.map(lambda ops: ("trip", ops)),
        group.map(lambda ops: ("fault", ops)),
    )
    return st.lists(step, min_size=2, max_size=10)


def _apply(kb, ops) -> None:
    for insert, atom in ops:
        (kb.assert_fact if insert else kb.retract_fact)(atom)


def _run(kb, steps, sweep_at=None):
    """Drive *steps*; return ``(snapshot, program)`` for every epoch."""
    retained = []

    def publish():
        snapshot = kb.snapshot()
        if not retained or retained[-1][0].epoch != snapshot.epoch:
            retained.append((snapshot, Program.union(kb.store.as_program(), kb.rules)))
            # Read a page now and then, so later epochs carry its rows.
            if snapshot.epoch % 2:
                for name in snapshot.solution.view:
                    snapshot.rows(name)
                    snapshot.rows(name, truth=TruthValue.UNDEFINED)

    publish()
    for index, (kind, ops) in enumerate(steps):
        if index == sweep_at:
            junk = [Atom("junk", (Constant(i),)) for i in range(SWEEP)]
            with kb.batch():
                _apply(kb, [(True, atom) for atom in junk])
            publish()
            with kb.batch():
                _apply(kb, [(False, atom) for atom in junk])
            publish()
            assert kb.last_update.mode == "initial", kb.last_update.describe()
        if kind == "op":
            _apply(kb, ops)
        elif kind == "batch":
            with kb.batch():
                _apply(kb, ops)
        elif kind == "rollback":
            with pytest.raises(_Rollback):
                with kb.batch():
                    _apply(kb, ops)
                    raise _Rollback
        elif kind == "trip":
            _apply(kb, ops)
            try:
                with metered(Budget(max_steps=1)):
                    kb.solution
            except BudgetExceeded:
                pass  # the next read retries the refresh from scratch
        else:
            _apply(kb, ops)
            failing = mock.patch.object(
                DeltaMaintainer, "apply", side_effect=RuntimeError("maintenance died")
            )
            try:
                with failing:
                    kb.solution
            except RuntimeError:
                pass
        publish()
    return retained


def _check(snapshot, program, config, ground: bool) -> None:
    scratch = solve_configured(program, config)
    solution = snapshot.solution
    assert solution.program == program
    base = solution.base
    if ground:
        assert base == scratch.base
    assert base >= scratch.base
    model, oracle = solution.interpretation, scratch.interpretation
    assert model.true_atoms == oracle.true_atoms
    assert model.false_atoms == oracle.false_atoms | (base - scratch.base)
    for atom in base:
        assert snapshot.value_of(atom) is scratch.value_of(atom), atom
    names = {atom.predicate for atom in base} | set(solution.view)
    for name in names:
        assert snapshot.relation(name) == scratch.relation(name), name
        assert snapshot.undefined_relation(name) == scratch.undefined_relation(name), name
        assert snapshot.rows(name) == sorted(scratch.relation(name), key=repr), name
        assert snapshot.rows(name, truth=TruthValue.UNDEFINED) == sorted(
            scratch.undefined_relation(name), key=repr
        ), name
    assert solution.context.base == base
    for atom in sorted(base, key=str)[::5]:
        assert snapshot.explain(atom).verdict == scratch.value_of(atom).value, atom


def _store(kind: str):
    return MemoryStore() if kind == "memory" else SqliteStore(":memory:")


_stores = pytest.mark.parametrize("store", ["memory", "sqlite"])

WFS = EngineConfig(semantics="well-founded")


class TestRetainedSnapshots:
    @_stores
    @given(
        initial=st.sets(st.sampled_from(_MOVES), max_size=6),
        steps=_steps(_MOVES),
        sweep_at=st.integers(min_value=0, max_value=9),
    )
    @settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_non_ground_rules(self, store, initial, steps, sweep_at):
        with KnowledgeBase(NON_GROUND, facts=initial, store=_store(store), config=WFS) as kb:
            assert kb.is_incremental
            retained = _run(kb, steps, sweep_at=min(sweep_at, len(steps) - 1))
            for snapshot, program in retained:
                _check(snapshot, program, WFS, ground=False)

    @_stores
    @given(seed=st.integers(min_value=0, max_value=40), steps=_steps(_PROPOSITIONS))
    @settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_ground_rules(self, store, seed, steps):
        program = random_propositional_program(atoms=ATOM_POOL, rules=18, seed=seed)
        with KnowledgeBase(program, store=_store(store), config=WFS) as kb:
            assert kb.is_incremental
            retained = _run(kb, steps)
            for snapshot, epoch_program in retained:
                _check(snapshot, epoch_program, WFS, ground=True)
