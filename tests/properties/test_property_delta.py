"""Property: atom-level delta maintenance is invisible.

Random assert/retract/batch churn against sessions running the delta
path (counting + DRed + resolve fallback) must stay byte-identical, after
*every* refresh, to a from-scratch solve of the current program —
through both the in-memory and the durable SQLite store.  This is the
soundness contract of :mod:`repro.delta`: no counter drift, no over- or
under-deletion, no stale verdict survives any interleaving.

Default-config sessions over stratified and Horn programs take the same
path, and their from-scratch oracle is an evaluator independent of the
engine and of the kernel ``auto`` runs: ``stratified_model`` /
``horn_minimum_model``, requested by name.
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
from repro.engine.solver import solve_configured
from repro.session import KnowledgeBase
from repro.storage import MemoryStore, SqliteStore
from repro.workloads import random_propositional_program, social_graph_stream

ATOM_POOL = 12

WFS = EngineConfig(semantics="well-founded")
AUTO = EngineConfig()
STRATIFIED = EngineConfig(semantics="stratified")
HORN = EngineConfig(semantics="horn")


def _model_bytes(solution) -> bytes:
    """Canonical byte serialisation of a solution's partial model + base."""
    lines = sorted(str(atom) for atom in solution.interpretation.true_atoms)
    lines.extend(sorted(f"not {atom}" for atom in solution.interpretation.false_atoms))
    lines.extend(sorted(f"base {atom}" for atom in solution.base))
    return "\n".join(lines).encode("utf-8")


def _apply_and_check(kb: KnowledgeBase, operations, oracle: EngineConfig | None = None) -> None:
    """Apply *operations* one by one, checking the session after each
    against a from-scratch solve under *oracle* (its own config by
    default)."""
    for insert, atom in operations:
        (kb.assert_fact if insert else kb.retract_fact)(atom)
        scratch = solve_configured(
            Program.union(kb.store.as_program(), kb.rules), oracle or kb.config
        )
        assert _model_bytes(kb.solution) == _model_bytes(scratch), (
            f"delta-maintained model diverged after "
            f"{'assert' if insert else 'retract'} {atom}"
        )
        if kb.epoch > 1:
            assert kb.last_update.mode == "delta", kb.last_update.describe()


def _layered_kb(seed: int, negation: bool, store) -> KnowledgeBase:
    """A default-config session over a random stratified program (Horn
    without negation), solved once."""
    program = random_propositional_program(
        atoms=ATOM_POOL,
        rules=18,
        seed=seed,
        layers=4,
        negation_probability=0.4 if negation else 0.0,
    )
    kb = KnowledgeBase(program, config=AUTO, store=store)
    assert is_stratified(kb.rules)
    assert kb.rules.is_definite is not negation
    # Ground rules: auto runs the alternating fixpoint, Horn or not.
    assert kb.semantics == "alternating-fixpoint"
    assert kb.is_incremental
    kb.solution
    return kb


# Atoms drawn partly from the program's own alphabet (hitting counters,
# DRed circuits and resolve components) and partly fresh (floating facts).
_operations = st.lists(
    st.tuples(
        st.booleans(),
        st.sampled_from(
            [f"p{i}" for i in range(ATOM_POOL)] + ["fresh_a", "fresh_b"]
        ).map(lambda name: Atom(name, ())),
    ),
    min_size=1,
    max_size=8,
)


class TestDeltaLockstep:
    @given(seed=st.integers(min_value=0, max_value=40), operations=_operations)
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_delta_matches_scratch_on_memory_store(self, seed, operations):
        program = random_propositional_program(atoms=ATOM_POOL, rules=18, seed=seed)
        kb = KnowledgeBase(program, config=WFS, store=MemoryStore())
        _apply_and_check(kb, operations)

    @given(seed=st.integers(min_value=0, max_value=12), operations=_operations)
    @settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_delta_matches_scratch_on_sqlite_store(self, seed, operations):
        program = random_propositional_program(atoms=ATOM_POOL, rules=18, seed=seed)
        with KnowledgeBase(
            program, config=WFS, store=SqliteStore(":memory:")
        ) as kb:
            _apply_and_check(kb, operations)

    @given(seed=st.integers(min_value=0, max_value=15), operations=_operations)
    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_batched_churn_matches_scratch(self, seed, operations):
        """The whole sequence in one batch: one maintenance pass over the
        union of changes still lands on the from-scratch model."""
        program = random_propositional_program(atoms=ATOM_POOL, rules=18, seed=seed)
        kb = KnowledgeBase(program, config=WFS)
        kb.solution
        with kb.batch():
            for insert, atom in operations:
                (kb.assert_fact if insert else kb.retract_fact)(atom)
        scratch = solve_configured(Program.union(kb.store.as_program(), kb.rules), kb.config)
        assert _model_bytes(kb.solution) == _model_bytes(scratch)


class TestStratifiedAndHornSessions:
    @given(seed=st.integers(min_value=0, max_value=40), negation=st.booleans(),
           operations=_operations)
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_matches_scratch_on_memory_store(self, seed, negation, operations):
        kb = _layered_kb(seed, negation, MemoryStore())
        _apply_and_check(kb, operations, STRATIFIED if negation else HORN)

    @given(seed=st.integers(min_value=0, max_value=12), negation=st.booleans(),
           operations=_operations)
    @settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_matches_scratch_on_sqlite_store(self, seed, negation, operations):
        with _layered_kb(seed, negation, SqliteStore(":memory:")) as kb:
            _apply_and_check(kb, operations, STRATIFIED if negation else HORN)

    @given(seed=st.integers(min_value=0, max_value=10))
    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_social_graph_stream_on_the_default_config(self, seed):
        """The social-graph workload is stratified; ``auto`` maintains its
        well-founded model, which is the perfect model."""
        program, ops = social_graph_stream(
            12, extra_edges=4, back_edges=3, steps=10, seed=seed
        )
        kb = KnowledgeBase(program, config=AUTO)
        assert is_stratified(kb.rules) and not kb.rules.is_definite
        assert kb.semantics == "alternating-fixpoint"
        kb.solution
        _apply_and_check(kb, [(op.kind == "assert", op.atom) for op in ops], STRATIFIED)


class TestStreamChurn:
    @given(seed=st.integers(min_value=0, max_value=10))
    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_social_graph_stream_stays_identical(self, seed):
        """Seeded churn over a recursive workload (counting + DRed mix):
        every prefix of the stream leaves the session on the oracle model."""
        program, ops = social_graph_stream(
            12, extra_edges=4, back_edges=3, steps=10, seed=seed
        )
        kb = KnowledgeBase(program, config=WFS)
        kb.solution
        _apply_and_check(
            kb, [(op.kind == "assert", op.atom) for op in ops]
        )
