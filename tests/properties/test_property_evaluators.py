"""Differential property tests: both production evaluators ≡ the references.

Two component-wise evaluators compute well-founded models in production,
one per job: the compiled flat-array kernel (:mod:`repro.kernel`) for
one-shot solves, and the session engine, whose full solve
(``IncrementalEngine.refresh`` with no change set) runs
:func:`~repro.core.modular.solve_component` over every component.  Both
must produce a partial model **byte-identical** to the monolithic
alternating fixpoint and to the unfounded-set characterisation
(:func:`well_founded_model`) on every program — Theorem 7.8 plus the
splitting property of the well-founded semantics.  Every sweep runs once
per evaluator (the ``evaluate`` fixture), so a failure names the evaluator
that diverged.  Hypothesis drives the sweep over the random non-ground
generator (grounded before evaluation), random ground propositional
programs (dense negation cycles), the layered workload with its method
counts, and definite programs.  One more family solves definite
non-ground programs from the grounder's envelope (``solve`` under
``auto`` and requested ``horn``, with no store, a ``MemoryStore`` and a
``SqliteStore``) against the Horn minimum model over a ground context and
the monolithic AFP, true set, false set and base alike; a last family
checks that the ``engine`` knob is semantics-irrelevant: the kernel and
the monolithic engine either agree exactly or fail identically under
every supported semantics.
"""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.config import EngineConfig
from repro.core.alternating import alternating_fixpoint
from repro.core.context import build_context
from repro.core.wellfounded import well_founded_model
from repro.datalog.rules import Program, Rule
from repro.engine.solver import solve
from repro.kernel import kernel_well_founded
from repro.semantics.horn import horn_minimum_model
from repro.storage import MemoryStore, SqliteStore
from repro.workloads import (
    layered_program,
    random_nonground_program,
    random_propositional_program,
)

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


def _render(model) -> bytes:
    lines = sorted(str(atom) for atom in model.true_atoms)
    lines.extend(sorted(f"not {atom}" for atom in model.false_atoms))
    return "\n".join(lines).encode("utf-8")


@pytest.fixture(scope="module", params=["kernel", "session"])
def evaluate(request, session_full_solve):
    """One production evaluator: the one-shot kernel, or a session's full
    solve (module-scoped, so Hypothesis tests may take it)."""
    return kernel_well_founded if request.param == "kernel" else session_full_solve


def _assert_byte_identical(program, evaluate):
    """The evaluator's, the monolithic AFP's and ``W_P``'s partial models,
    byte for byte.  Returns the evaluator's result."""
    result = evaluate(program)
    reference = _render(alternating_fixpoint(program).model)
    assert _render(well_founded_model(program).model) == reference, "W_P vs monolithic AFP"
    assert _render(result.model) == reference, "evaluator vs monolithic AFP"
    return result


def _render_total(model, base) -> bytes:
    """:func:`_render` followed by the base the model is taken over."""
    return _render(model) + b"\n--\n" + "\n".join(sorted(map(str, base))).encode("utf-8")


def _solve_definite(program: Program, semantics: str, backend):
    """``solve`` of *program*; with a *backend*, its store holds two thirds
    of the facts and the rules keep two thirds (one third in both)."""
    config = EngineConfig(semantics=semantics)
    if backend is None:
        return solve(program, config=config)
    facts = sorted(program.fact_atoms(), key=str)
    store = MemoryStore() if backend == "memory" else SqliteStore(":memory:")
    try:
        store.load(fact for index, fact in enumerate(facts) if index % 3)
        kept = [Rule(fact) for index, fact in enumerate(facts) if index % 3 != 1]
        return solve(Program([*kept, *program.non_fact_rules()]), config=config, store=store)
    finally:
        store.close()


def _outcome(text: str, semantics: str, engine: str):
    """The interpretation, or the exception type when solving fails."""
    try:
        solution = solve(text, config=EngineConfig(semantics=semantics, engine=engine))
    except Exception as error:  # noqa: BLE001 - the type is the datum
        return type(error)
    return solution.interpretation


class TestHypothesisDriven:
    @SETTINGS
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        rules=st.integers(min_value=2, max_value=10),
        negation=st.sampled_from([0.0, 0.25, 0.6]),
    )
    def test_random_nonground_programs(self, evaluate, seed, rules, negation):
        program = random_nonground_program(
            seed=seed, rules=rules, negation_probability=negation
        )
        _assert_byte_identical(program, evaluate)

    @SETTINGS
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        atoms=st.integers(min_value=1, max_value=14),
        rules=st.integers(min_value=1, max_value=45),
    )
    def test_random_propositional_programs(self, evaluate, seed, atoms, rules):
        program = random_propositional_program(atoms=atoms, rules=rules, seed=seed)
        _assert_byte_identical(program, evaluate)

    @SETTINGS
    @given(
        layers=st.integers(min_value=1, max_value=4),
        size=st.integers(min_value=2, max_value=8),
    )
    def test_layered_programs(self, evaluate, layers, size):
        result = _assert_byte_identical(layered_program(layers, size), evaluate)
        # The undefined triangle forces one alternating component per
        # layer, its two observers two stratified components per layer.
        counts = result.method_counts()
        assert counts.get("alternating") == layers
        assert counts.get("stratified") == 2 * layers

    @pytest.mark.parametrize("backend", [None, "memory", "sqlite"])
    @pytest.mark.parametrize("semantics", ["auto", "horn"])
    @SETTINGS
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        rules=st.integers(min_value=2, max_value=10),
    )
    def test_definite_programs_solve_from_the_envelope(self, semantics, backend, seed, rules):
        program = random_nonground_program(seed=seed, rules=rules, negation_probability=0.0)
        solution = _solve_definite(program, semantics, backend)
        assert solution.semantics == "horn"
        # Ground rule sets keep the context path; the rest solve from the
        # envelope and build no context.
        assert (solution.context is None) == (not program.is_ground)
        got = _render_total(solution.interpretation, solution.base)
        horn = horn_minimum_model(build_context(program))
        assert got == _render_total(horn.interpretation, horn.context.base), "vs Horn"
        afp = alternating_fixpoint(program)
        assert got == _render_total(afp.model, afp.context.base), "vs monolithic AFP"

    @SETTINGS
    @given(
        seed=st.integers(min_value=0, max_value=5_000),
        semantics=st.sampled_from(
            ["horn", "stratified", "stable", "well-founded", "alternating-fixpoint"]
        ),
    )
    def test_engine_is_semantics_irrelevant(self, seed, semantics):
        """The kernel and monolithic engines agree — or fail with the same
        exception — under every supported semantics."""
        program = random_propositional_program(
            atoms=8, rules=20, seed=seed, negation_probability=0.5
        )
        text = "\n".join(str(rule) for rule in program)
        outcomes = {
            engine: _outcome(text, semantics, engine) for engine in ("kernel", "monolithic")
        }
        assert outcomes["kernel"] == outcomes["monolithic"], (semantics, outcomes)


class TestSeedSweeps:
    @pytest.mark.parametrize("seed", range(10))
    def test_dense_negation_ground_programs(self, evaluate, seed):
        program = random_propositional_program(
            atoms=10, rules=60, seed=seed, negation_probability=0.6
        )
        _assert_byte_identical(program, evaluate)

    @pytest.mark.parametrize("seed", range(6))
    def test_definite_nonground_programs(self, evaluate, seed):
        program = random_nonground_program(seed=seed, negation_probability=0.0)
        result = _assert_byte_identical(program, evaluate)
        # Definite programs decompose into Horn components only.
        assert set(result.method_counts()) <= {"horn"}
        assert result.is_total
