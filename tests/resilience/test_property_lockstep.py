"""Property: storage faults never corrupt the maintained model.

Hypothesis drives random assert/retract sequences against a
:class:`KnowledgeBase` whose store is wrapped in a deterministic
:class:`FaultInjectingStore`, with the fault schedule itself drawn by the
strategy.  A shadow fact set is updated only when an operation succeeds;
after the sequence the injector is disarmed and the KB must hold exactly
the shadow facts and serve a model byte-identical to a freshly solved
oracle of the same program.  This is the lockstep contract: a fault can
make an operation fail, but never make the session lie.  Default-config
sessions over stratified and Horn programs, which ``auto`` maintains on
the incremental engine, are held to the same contract against the
stratified and Horn evaluators, requested by name.
"""

from __future__ import annotations

import pytest

try:
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st
except ImportError:  # pragma: no cover - environment guard
    pytest.skip("hypothesis is not installed", allow_module_level=True)

from repro.analysis.stratification import is_stratified
from repro.config import EngineConfig
from repro.datalog.atoms import Atom
from repro.datalog.rules import Program
from repro.datalog.terms import Constant
from repro.engine.solver import solve_configured
from repro.resilience import FaultInjectingStore, InjectedFault
from repro.session import KnowledgeBase
from repro.storage import MemoryStore
from repro.workloads import random_propositional_program

pytestmark = pytest.mark.faultinject

ATOM_POOL = 12


def _model_bytes(solution) -> bytes:
    lines = sorted(str(atom) for atom in solution.interpretation.true_atoms)
    lines.extend(sorted(f"not {atom}" for atom in solution.interpretation.false_atoms))
    lines.extend(sorted(f"base {atom}" for atom in solution.base))
    return "\n".join(lines).encode("utf-8")


def _faulted_kb(program, script, config=EngineConfig(semantics="well-founded")):
    """A KB over *program* (well-founded by default), with an armed
    injector.

    The injector is disarmed while the session bootstraps (constructor
    loads the program's own facts into the store) so the drawn schedule
    applies only to the operations under test.
    """
    store = FaultInjectingStore(MemoryStore(), script=script)
    store.armed = False
    kb = KnowledgeBase(program, store=store, config=config)
    shadow = {str(atom) for atom in kb.facts()}
    store.armed = True
    return kb, store, shadow


def _apply(kb, operations, shadow, read=False):
    """Apply *operations*, mirroring each one that succeeds into *shadow*;
    with *read*, refresh after each (a faulting refresh is retried by the
    next read)."""
    for insert, atom in operations:
        try:
            if insert:
                kb.assert_fact(atom)
            else:
                kb.retract_fact(atom)
        except InjectedFault:
            continue
        if insert:
            shadow.add(str(atom))
        else:
            shadow.discard(str(atom))
        if read:
            try:
                kb.solution
            except InjectedFault:
                pass  # the refresh aborted; the next read retries it


_atoms = st.sampled_from(
    [f"p{i}" for i in range(ATOM_POOL)] + ["fresh_a", "fresh_b"]
).map(lambda name: Atom(name, ()))

_operations = st.lists(st.tuples(st.booleans(), _atoms), min_size=1, max_size=8)

# Drawn fault schedules: which storage operations fail, at which 1-based
# occurrence counts.  Occurrences past the sequence length simply never fire.
_scripts = st.dictionaries(
    st.sampled_from(["add", "remove", "savepoint"]),
    st.sets(st.integers(min_value=1, max_value=10), min_size=1, max_size=3),
    max_size=3,
)


def _check_against_oracle(kb, store, shadow, config=None):
    """Disarm the injector; the session must hold the *shadow* facts and
    the model a from-scratch solve under *config* (the session's own by
    default) gives."""
    store.armed = False
    assert {str(atom) for atom in kb.facts()} == shadow
    oracle = solve_configured(
        Program.union(kb.store.as_program(), kb.rules), config or kb.config
    )
    assert _model_bytes(kb.solution) == _model_bytes(oracle)


# A non-ground program: the session grounds incrementally.  Its first solve
# and every fresh grounding read the store, so "read" faults land inside
# those refreshes; a delta refresh reads nothing.  The grounding outlives
# retractions, so the base may carry extra atoms; they must all be false.
NON_GROUND = """
wins(X) :- move(X, Y), not wins(Y).
two(X, Z) :- move(X, Y), move(Y, Z).
"""
# Horn and stratified counterparts, which ``auto`` resolves to ``horn``
# and ``alternating-fixpoint``.
HORN_NON_GROUND = """
reach(X, Y) :- move(X, Y).
reach(X, Z) :- reach(X, Y), move(Y, Z).
"""
STRATIFIED_NON_GROUND = HORN_NON_GROUND + "one_way(X, Y) :- move(X, Y), not reach(Y, X).\n"

_moves = st.sampled_from(
    [Atom("move", (Constant(x), Constant(y))) for x in "abc" for y in "abcd"]
)
_move_operations = st.lists(st.tuples(st.booleans(), _moves), min_size=1, max_size=8)
_refresh_scripts = st.dictionaries(
    st.sampled_from(["add", "remove", "savepoint", "read"]),
    st.sets(st.integers(min_value=1, max_value=12), min_size=1, max_size=3),
    max_size=3,
)


def _verdict_bytes(solution) -> bytes:
    model = solution.interpretation
    lines = sorted(str(atom) for atom in model.true_atoms)
    lines.extend(
        sorted(
            f"undefined {atom}"
            for atom in solution.base
            if atom not in model.true_atoms and atom not in model.false_atoms
        )
    )
    return "\n".join(lines).encode("utf-8")


def _check_non_ground_against_oracle(kb, store, shadow, config=None):
    store.armed = False
    assert {str(atom) for atom in kb.facts()} == shadow
    solution = kb.solution
    oracle = solve_configured(
        Program.union(kb.store.as_program(), kb.rules), config or kb.config
    )
    assert _verdict_bytes(solution) == _verdict_bytes(oracle)
    assert solution.base >= oracle.base
    assert solution.base - oracle.base <= solution.interpretation.false_atoms


def _non_ground_kb(script, rules=NON_GROUND):
    store = FaultInjectingStore(MemoryStore(), script=script)
    store.armed = False
    kb = KnowledgeBase(rules, store=store, facts={"move": [("a", "b"), ("b", "c")]})
    kb.solution
    assert kb.is_incremental
    shadow = {str(atom) for atom in kb.facts()}
    store.armed = True
    return kb, store, shadow


class TestLockstep:
    @given(
        seed=st.integers(min_value=0, max_value=30),
        operations=_operations,
        script=_scripts,
    )
    @settings(
        max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    def test_per_operation_faults_match_oracle(self, seed, operations, script):
        """Each operation applies fully or not at all; the surviving set
        solves to exactly the oracle model."""
        program = random_propositional_program(atoms=ATOM_POOL, rules=18, seed=seed)
        kb, store, shadow = _faulted_kb(program, script)
        _apply(kb, operations, shadow)
        _check_against_oracle(kb, store, shadow)

    @given(
        seed=st.integers(min_value=0, max_value=30),
        negation=st.booleans(),
        operations=_operations,
        script=_scripts,
    )
    @settings(
        max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    def test_stratified_and_horn_session_faults_match_oracle(
        self, seed, negation, operations, script
    ):
        """The same contract for a default-config session the engine
        maintains under ``stratified`` (or ``horn``, without negation),
        reading after every operation."""
        program = random_propositional_program(
            atoms=ATOM_POOL,
            rules=18,
            seed=seed,
            layers=4,
            negation_probability=0.4 if negation else 0.0,
        )
        kb, store, shadow = _faulted_kb(program, script, EngineConfig())
        assert is_stratified(kb.rules)
        assert kb.rules.is_definite is not negation
        # Ground rules: auto runs the alternating fixpoint, Horn or not.
        assert kb.semantics == "alternating-fixpoint"
        assert kb.is_incremental
        _apply(kb, operations, shadow, read=True)
        oracle = EngineConfig(semantics="stratified" if negation else "horn")
        _check_against_oracle(kb, store, shadow, oracle)

    @given(
        seed=st.integers(min_value=0, max_value=20),
        operations=_operations,
        script=_scripts,
    )
    @settings(
        max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    def test_faulted_batch_is_all_or_nothing(self, seed, operations, script):
        """A fault escaping a batch rolls the whole batch back; a clean
        batch applies the whole sequence.  Either way the model matches
        the oracle for whatever state survived."""
        program = random_propositional_program(atoms=ATOM_POOL, rules=18, seed=seed)
        kb, store, shadow = _faulted_kb(program, script)
        attempted = set(shadow)
        try:
            with kb.batch():
                for insert, atom in operations:
                    if insert:
                        kb.assert_fact(atom)
                        attempted.add(str(atom))
                    else:
                        kb.retract_fact(atom)
                        attempted.discard(str(atom))
        except InjectedFault:
            pass  # rolled back: shadow keeps the pre-batch state
        else:
            shadow = attempted
        _check_against_oracle(kb, store, shadow)

    @given(
        seed=st.integers(min_value=0, max_value=20),
        operations=_operations,
        fault_seed=st.integers(min_value=0, max_value=100),
    )
    @settings(
        max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    def test_seeded_fault_schedule_matches_oracle(self, seed, operations, fault_seed):
        """Same contract under the seeded (rate-driven) injector mode."""
        program = random_propositional_program(atoms=ATOM_POOL, rules=18, seed=seed)
        store = FaultInjectingStore(MemoryStore(), seed=fault_seed, rate=0.25)
        store.armed = False
        kb = KnowledgeBase(
            program, store=store, config=EngineConfig(semantics="well-founded")
        )
        shadow = {str(atom) for atom in kb.facts()}
        store.armed = True
        _apply(kb, operations, shadow)
        _check_against_oracle(kb, store, shadow)

    @given(operations=_move_operations, script=_refresh_scripts)
    @settings(
        max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    def test_non_ground_refresh_faults_match_oracle(self, operations, script):
        """Incremental grounding under faults: a mutation applies fully or
        not at all, a refresh that faults (a fresh grounding's read of the
        store) leaves the delta queued, and the session never misses a
        rule instance afterwards."""
        kb, store, shadow = _non_ground_kb(script)
        _apply(kb, operations, shadow, read=True)
        _check_non_ground_against_oracle(kb, store, shadow)

    @given(
        rules=st.sampled_from([HORN_NON_GROUND, STRATIFIED_NON_GROUND]),
        operations=_move_operations,
        script=_refresh_scripts,
    )
    @settings(
        max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    def test_stratified_and_horn_non_ground_refresh_faults_match_oracle(
        self, rules, operations, script
    ):
        """Incremental grounding under faults for Horn and stratified
        rules, which ``auto`` maintains on the engine as well."""
        kb, store, shadow = _non_ground_kb(script, rules)
        horn = rules == HORN_NON_GROUND
        assert kb.rules.is_definite is horn and is_stratified(kb.rules)
        assert kb.semantics == ("horn" if horn else "alternating-fixpoint")
        _apply(kb, operations, shadow, read=True)
        oracle = EngineConfig(semantics="horn" if horn else "stratified")
        _check_non_ground_against_oracle(kb, store, shadow, oracle)

    @given(operations=_move_operations, script=_refresh_scripts)
    @settings(
        max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    def test_non_ground_faulted_batch_is_all_or_nothing(self, operations, script):
        """A batch that reads inside (grounding new instances) and then
        faults rolls back; the grounding it grew may stay, but every true
        and undefined atom matches the oracle."""
        kb, store, shadow = _non_ground_kb(script)
        attempted = set(shadow)
        try:
            with kb.batch():
                for insert, atom in operations:
                    if insert:
                        kb.assert_fact(atom)
                        attempted.add(str(atom))
                    else:
                        kb.retract_fact(atom)
                        attempted.discard(str(atom))
                    kb.solution
        except InjectedFault:
            pass  # rolled back: shadow keeps the pre-batch state
        else:
            shadow = attempted
        _check_non_ground_against_oracle(kb, store, shadow)
