"""Differential property tests: every production evaluator ≡ the references.

Two component-wise evaluators compute well-founded models in production,
one per job: the compiled flat-array kernel (:mod:`repro.kernel`) for
one-shot solves, and the session engine, whose full solve
(``IncrementalEngine.refresh`` with no change set) runs
:func:`~repro.core.modular.solve_component` over every component.  The
kernel is fed two ways: from a built ground context
(:func:`~repro.kernel.kernel_model`), and — the route a well-founded
``solve`` takes — straight from the grounder's bindings or a ground
program's rules, with no context built.  Each evaluator's method counts
are read off its trace's ``components.*`` counters.  Each must produce a partial model
**byte-identical** to the monolithic alternating fixpoint and to the
unfounded-set characterisation (:func:`well_founded_model`) on every
program — Theorem 7.8 plus the splitting property of the well-founded
semantics — and the ``solve`` route's base must equal ``build_context``'s.
Every sweep runs once per evaluator (the ``evaluate`` fixture), so a
failure names the evaluator that diverged.  Hypothesis drives the sweep
over the random non-ground generator (grounded before evaluation), random
ground propositional programs (dense negation cycles), the layered
workload with its method counts, and definite programs.  Two more
families split a program's facts between its rules and a store (a
``MemoryStore`` or a ``SqliteStore``): definite non-ground programs solved
from the grounder's envelope (``solve`` under ``auto`` and requested
``horn``, and with no store too) against the Horn minimum model over a
ground context and the monolithic AFP, and programs with negation solved
well-founded straight into the kernel against the monolithic AFP — true
set, false set and base alike.  Stratified programs (non-ground, ground,
and ground definite ones), solved under ``auto`` with and without a
store, must match both the evaluator of their class over a ground context
(the perfect model, or the Horn minimum model) and the monolithic AFP.  A
last family checks that the ``engine`` knob is semantics-irrelevant: the
kernel and the monolithic engine either agree exactly or fail identically
under every supported semantics.
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
from repro.kernel import kernel_model
from repro.obs import TraceRecorder
from repro.semantics.horn import horn_minimum_model
from repro.semantics.stratified import stratified_model
from repro.storage import MemoryStore, SqliteStore
from repro.workloads import (
    layered_program,
    random_nonground_program,
    random_propositional_program,
)
from rule_strategies import fact_sets, stratified_programs

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


def _render(model) -> bytes:
    lines = sorted(str(atom) for atom in model.true_atoms)
    lines.extend(sorted(f"not {atom}" for atom in model.false_atoms))
    return "\n".join(lines).encode("utf-8")


class _Traced:
    """An evaluator's model, whether it is total over its base, and its
    method counts read off the trace of the run."""

    def __init__(self, model, base, recorder: TraceRecorder):
        self.model = model
        self.is_total = model.is_total_over(base)
        self._totals = recorder.counter_totals()

    def method_counts(self) -> dict[str, int]:
        return {
            method: int(self._totals[f"components.{method}"])
            for method in ("horn", "stratified", "alternating")
            if f"components.{method}" in self._totals
        }


def _kernel_over_a_context(program: Program) -> _Traced:
    """The kernel fed a built ground context."""
    context = build_context(program)
    recorder = TraceRecorder()
    return _Traced(kernel_model(context, recorder), context.base, recorder)


def _solved_into_the_kernel(program: Program) -> _Traced:
    """``solve`` under the well-founded semantics — grounded straight into
    the kernel's int IR.  It builds no context, and its base is
    ``build_context``'s."""
    recorder = TraceRecorder()
    solution = solve(program, config=EngineConfig(semantics="well-founded"), recorder=recorder)
    assert solution.context is None
    assert solution.base == build_context(program).base, "base vs build_context"
    return _Traced(solution.interpretation, solution.base, recorder)


@pytest.fixture(scope="module", params=["kernel", "session", "solve"])
def evaluate(request, session_full_solve):
    """One production evaluator: the one-shot kernel over a context, a
    session's full solve, or ``solve``'s kernel route (module-scoped, so
    Hypothesis tests may take it)."""
    return {
        "kernel": _kernel_over_a_context,
        "session": session_full_solve,
        "solve": _solved_into_the_kernel,
    }[request.param]


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


def _solve_split(program: Program, semantics: str, backend):
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


def _assert_auto_gives_the_class_model(program: Program, backend) -> None:
    """``solve`` of a stratified *program* under ``auto`` (split with
    *backend* as :func:`_solve_split` does): the envelope on a definite
    non-ground program, the kernel on any other.  Its true set, false set
    and base against the class evaluator over a ground context — the Horn
    minimum model of a definite program, the perfect model of any other —
    and against the monolithic AFP."""
    solution = _solve_split(program, "auto", backend)
    envelope = program.is_definite and not program.is_ground
    assert solution.semantics == ("horn" if envelope else "alternating-fixpoint")
    assert solution.context is None
    got = _render_total(solution.interpretation, solution.base)
    context = build_context(program)
    by_class = (horn_minimum_model if program.is_definite else stratified_model)(context)
    assert got == _render_total(by_class.interpretation, context.base), "vs class evaluator"
    afp = alternating_fixpoint(program)
    assert got == _render_total(afp.model, afp.context.base), "vs monolithic AFP"


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
        solution = _solve_split(program, semantics, backend)
        if semantics == "auto" and program.is_ground:
            # auto runs the kernel on a ground program (a rare draw here).
            assert solution.semantics == "alternating-fixpoint"
            assert solution.context is None
        else:
            assert solution.semantics == "horn"
            # A requested horn keeps the context path on ground rule sets;
            # the rest solve from the envelope and build no context.
            assert (solution.context is None) == (not program.is_ground)
        got = _render_total(solution.interpretation, solution.base)
        horn = horn_minimum_model(build_context(program))
        assert got == _render_total(horn.interpretation, horn.context.base), "vs Horn"
        afp = alternating_fixpoint(program)
        assert got == _render_total(afp.model, afp.context.base), "vs monolithic AFP"

    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    @pytest.mark.parametrize("semantics", ["well-founded", "alternating-fixpoint"])
    @SETTINGS
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        rules=st.integers(min_value=2, max_value=10),
        negation=st.sampled_from([0.25, 0.6]),
    )
    def test_store_facts_solve_into_the_kernel(self, semantics, backend, seed, rules, negation):
        program = random_nonground_program(
            seed=seed, rules=rules, negation_probability=negation
        )
        solution = _solve_split(program, semantics, backend)
        assert solution.semantics == semantics and solution.context is None
        got = _render_total(solution.interpretation, solution.base)
        afp = alternating_fixpoint(program)
        assert got == _render_total(afp.model, afp.context.base), "vs monolithic AFP"

    @pytest.mark.parametrize("backend", [None, "memory", "sqlite"])
    @SETTINGS
    @given(rules=stratified_programs, facts=fact_sets)
    def test_auto_on_stratified_nonground_programs(self, backend, rules, facts):
        program = Program([*(Rule(fact) for fact in sorted(facts, key=str)), *rules])
        _assert_auto_gives_the_class_model(program, backend)

    @pytest.mark.parametrize("backend", [None, "memory", "sqlite"])
    @SETTINGS
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        atoms=st.integers(min_value=1, max_value=14),
        rules=st.integers(min_value=1, max_value=45),
        negation=st.sampled_from([0.0, 0.4, 0.8]),
    )
    def test_auto_on_stratified_ground_programs(self, backend, seed, atoms, rules, negation):
        """With negation, layered (so stratified); without, definite and
        unlayered (so recursive)."""
        program = random_propositional_program(
            atoms=atoms,
            rules=rules,
            seed=seed,
            layers=4 if negation else 0,
            negation_probability=negation,
        )
        _assert_auto_gives_the_class_model(program, backend)

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
