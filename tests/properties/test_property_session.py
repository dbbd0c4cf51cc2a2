"""Property: incremental maintenance is invisible.

Random assert/retract sequences against a :class:`KnowledgeBase` must
yield, after *every* step, a model byte-identical to solving the current
program from scratch — across the kernel (incremental) and monolithic
(full re-solve) engine configurations.  This is the end-to-end soundness contract of
:mod:`repro.session.incremental`: component-level invalidation, floating
facts, batch cancellation and base bookkeeping all have to agree with the
one-shot pipeline exactly.
"""

from __future__ import annotations

import pytest

try:
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st
except ImportError:  # pragma: no cover - environment guard
    pytest.skip("hypothesis is not installed", allow_module_level=True)

from repro.config import EngineConfig
from repro.datalog.atoms import Atom
from repro.datalog.rules import Program
from repro.engine.solver import solve_configured
from repro.session import KnowledgeBase
from repro.workloads import layered_program, random_propositional_program

ATOM_POOL = 12


def _model_bytes(solution) -> bytes:
    """Canonical byte serialisation of a solution's partial model + base."""
    lines = sorted(str(atom) for atom in solution.interpretation.true_atoms)
    lines.extend(sorted(f"not {atom}" for atom in solution.interpretation.false_atoms))
    lines.extend(sorted(f"base {atom}" for atom in solution.base))
    return "\n".join(lines).encode("utf-8")


def _apply_and_check(kb: KnowledgeBase, operations) -> None:
    """Apply (assert?, atom) steps one by one, differentially checking the
    maintained model against a from-scratch solve after every step."""
    for insert, atom in operations:
        if insert:
            kb.assert_fact(atom)
        else:
            kb.retract_fact(atom)
        scratch = solve_configured(Program.union(kb.store.as_program(), kb.rules), kb.config)
        assert _model_bytes(kb.solution) == _model_bytes(scratch), (
            f"maintained model diverged after "
            f"{'assert' if insert else 'retract'} {atom}"
        )


# Atoms drawn partly from the program's own alphabet (hitting rule atoms)
# and partly fresh (floating facts / base growth and shrinkage).
_operations = st.lists(
    st.tuples(
        st.booleans(),
        st.tuples(
            st.sampled_from([f"p{i}" for i in range(ATOM_POOL)] + ["fresh_a", "fresh_b"]),
        ).map(lambda names: Atom(names[0], ())),
    ),
    min_size=1,
    max_size=8,
)


class TestRandomPropositional:
    @given(seed=st.integers(min_value=0, max_value=40), operations=_operations)
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_kernel_engine_matches_scratch(self, seed, operations):
        program = random_propositional_program(atoms=ATOM_POOL, rules=18, seed=seed)
        kb = KnowledgeBase(
            program, config=EngineConfig(semantics="well-founded", engine="kernel")
        )
        assert kb.is_incremental
        _apply_and_check(kb, operations)

    @given(seed=st.integers(min_value=0, max_value=15), operations=_operations)
    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_monolithic_engine_matches_scratch(self, seed, operations):
        program = random_propositional_program(atoms=ATOM_POOL, rules=18, seed=seed)
        kb = KnowledgeBase(
            program, config=EngineConfig(semantics="well-founded", engine="monolithic")
        )
        assert not kb.is_incremental
        _apply_and_check(kb, operations)

    @given(seed=st.integers(min_value=0, max_value=15), operations=_operations)
    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_engines_agree_with_each_other(self, seed, operations):
        program = random_propositional_program(atoms=ATOM_POOL, rules=18, seed=seed)
        kernel = KnowledgeBase(
            program, config=EngineConfig(semantics="well-founded", engine="kernel")
        )
        monolithic = KnowledgeBase(
            program, config=EngineConfig(semantics="well-founded", engine="monolithic")
        )
        for insert, atom in operations:
            for kb in (kernel, monolithic):
                if insert:
                    kb.assert_fact(atom)
                else:
                    kb.retract_fact(atom)
            assert _model_bytes(kernel.solution) == _model_bytes(monolithic.solution)

    @given(seed=st.integers(min_value=0, max_value=15), operations=_operations)
    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_batched_sequence_matches_scratch(self, seed, operations):
        """The whole sequence applied in one batch refreshes once and still
        lands on the from-scratch model."""
        program = random_propositional_program(atoms=ATOM_POOL, rules=18, seed=seed)
        kb = KnowledgeBase(program, config=EngineConfig(semantics="well-founded"))
        kb.solution
        with kb.batch():
            for insert, atom in operations:
                (kb.assert_fact if insert else kb.retract_fact)(atom)
        scratch = solve_configured(Program.union(kb.store.as_program(), kb.rules), kb.config)
        assert _model_bytes(kb.solution) == _model_bytes(scratch)


class TestLayeredWorkload:
    @given(
        layer=st.integers(min_value=0, max_value=3),
        rung=st.integers(min_value=0, max_value=7),
        retract_gate=st.booleans(),
    )
    @settings(max_examples=25, deadline=None)
    def test_layered_updates_match_scratch(self, layer, rung, retract_gate):
        """Asserts into negation chains and the retraction of the ground
        gate fact — the update shapes the acceptance benchmark leans on."""
        kb = KnowledgeBase(
            layered_program(4, 8), config=EngineConfig(semantics="well-founded")
        )
        kb.solution
        operations = [(True, Atom("chain", tuple(_c(v) for v in (layer, rung))))]
        if retract_gate:
            operations.append((False, Atom("base", (_c(0),))))
        _apply_and_check(kb, operations)


def _c(value):
    from repro.datalog.terms import Constant

    return Constant(value)
