"""Experiment E15 — component-wise versus monolithic well-founded evaluation.

The monolithic alternating fixpoint pays (number of global stages) ×
(whole-program ``S_P`` cost); on layered workloads the stage count grows
with the negation-chain depth while every stage touches every layer, so
the total work is quadratic-ish in the program size.  The component-wise
evaluator of a one-shot solve, the compiled kernel (:mod:`repro.kernel`),
condenses the atom dependency graph, solves each SCC with the cheapest
sound method, and only runs the alternating fixpoint on the tiny
negation-through-recursion clusters — near-linear total work.  Its
timings include the compile, which it pays once per grounding.

``layered_program`` is the adversarial case: stacked negation chains
(each needs Θ(depth) global stages monolithically, but every rung is a
singleton SCC), one undefined triangle per layer (the per-component
alternating fixpoint), and observers resting on the undefined atoms (the
stratified double closure).

Every comparison asserts the partial models are byte-identical across the
kernel, the monolithic alternating fixpoint, and the unfounded-set
characterisation (``well_founded_model``), so a timing run doubles as a
Theorem 7.8 / splitting-property check.  The method counts come from
traced runs (the ``components.<method>`` counters), and the component
sizes from a session's full solve (its ``component`` spans), which runs
the same dispatch over atom objects.

Run with ``pytest benchmarks/bench_modular_wfs.py -s``.
"""

import time

import pytest

from _metrics import emit
from _smoke import trim
from repro.core.alternating import alternating_fixpoint
from repro.core.context import build_context
from repro.core.wellfounded import well_founded_model
from repro.datalog.rules import Program
from repro.kernel import kernel_model
from repro.obs import TraceRecorder
from repro.session import IncrementalEngine
from repro.workloads import layered_program

# The acceptance criterion: ≥5× on a layered workload of ≥8 negation
# clusters.  Small enough (~2s total) to run on every CI push.
ACCEPTANCE_LAYERS = 12
ACCEPTANCE_SIZE = 200
SCALING_SWEEP = trim([(2, 40), (6, 100), (12, 200)], keep=2)
REPEAT = 3


def _best_time(function) -> float:
    best = float("inf")
    for _ in range(REPEAT):
        start = time.perf_counter()
        function()
        best = min(best, time.perf_counter() - start)
    return best


def _method_counts(recorder) -> dict:
    """Components per solving method, from a trace's ``components.*``
    counters."""
    totals = recorder.counter_totals()
    return {
        method: int(totals[f"components.{method}"])
        for method in ("horn", "stratified", "alternating")
        if f"components.{method}" in totals
    }


def _render(true_atoms, false_atoms) -> bytes:
    """A canonical byte serialisation of a partial model."""
    lines = sorted(str(atom) for atom in true_atoms)
    lines.extend(sorted(f"not {atom}" for atom in false_atoms))
    return "\n".join(lines).encode("utf-8")


def _best_kernel(program) -> float:
    """Best one-shot kernel solve, compile included: each repetition
    evaluates a context built fresh (grounding is not timed)."""
    best = float("inf")
    for _ in range(REPEAT):
        context = build_context(program)
        start = time.perf_counter()
        kernel_model(context)
        best = min(best, time.perf_counter() - start)
    return best


def _assert_byte_identical(context):
    """Kernel, monolithic-AFP and unfounded-set models, byte for byte."""
    kernel = kernel_model(context)
    monolithic = alternating_fixpoint(context, keep_stages=False)
    unfounded = well_founded_model(context)
    blobs = {
        "kernel": _render(kernel.true_atoms, kernel.false_atoms),
        "monolithic": _render(
            monolithic.positive_fixpoint, monolithic.negative_fixpoint.atoms
        ),
        "unfounded-set": _render(
            unfounded.model.true_atoms, unfounded.model.false_atoms
        ),
    }
    assert blobs["kernel"] == blobs["monolithic"] == blobs["unfounded-set"], (
        "well-founded models diverge across evaluation paths"
    )
    return kernel, monolithic


@pytest.mark.repro("E15")
def test_layered_acceptance(report):
    """≥5× kernel (compile included) over monolithic at 12 layers ×
    200-deep chains, with the three evaluation paths producing
    byte-identical partial models."""
    program = layered_program(ACCEPTANCE_LAYERS, ACCEPTANCE_SIZE)
    context = build_context(program)
    _, monolithic_result = _assert_byte_identical(context)

    kernel = _best_kernel(program)
    monolithic = _best_time(lambda: alternating_fixpoint(context, keep_stages=False))
    recorder = TraceRecorder()
    kernel_model(context, recorder)
    stats = {
        **context.statistics(),
        "components": int(recorder.counter_totals()["components.total"]),
        "methods": _method_counts(recorder),
    }
    report(
        f"layered {ACCEPTANCE_LAYERS}x{ACCEPTANCE_SIZE}: kernel vs monolithic WFS",
        [
            (f"atoms {stats['atoms']}, ground rules {stats['ground_rules']}",),
            (f"components {stats['components']} (methods {stats['methods']})",),
            (f"monolithic stages {monolithic_result.iterations}",),
            (f"kernel     {kernel * 1000:9.2f} ms (compile included)",),
            (f"monolithic {monolithic * 1000:9.2f} ms",),
            (f"speedup    {monolithic / kernel:9.1f}x",),
        ],
    )
    emit(
        "modular_wfs",
        workload=f"layered:{ACCEPTANCE_LAYERS}x{ACCEPTANCE_SIZE}",
        sizes={
            "atoms": stats["atoms"],
            "ground_rules": stats["ground_rules"],
            "components": stats["components"],
        },
        timings={"kernel": kernel, "monolithic": monolithic},
        speedups={"kernel_over_monolithic": monolithic / kernel},
        extra={
            "methods": stats["methods"],
            "monolithic_stages": monolithic_result.iterations,
        },
    )
    assert monolithic >= 5 * kernel, (
        f"the kernel must be ≥5× faster on the layered workload: "
        f"kernel {kernel * 1000:.2f} ms, monolithic {monolithic * 1000:.2f} ms "
        f"({monolithic / kernel:.1f}x)"
    )


@pytest.mark.repro("E15")
def test_layer_scaling(report):
    """Kernel work grows near-linearly with the workload while monolithic
    alternation degrades super-linearly; the gap must widen with size."""
    rows = []
    ratios = []
    for layers, size in SCALING_SWEEP:
        program = layered_program(layers, size)
        context = build_context(program)
        _assert_byte_identical(context)
        kernel = _best_kernel(program)
        monolithic = _best_time(lambda: alternating_fixpoint(context, keep_stages=False))
        ratios.append(monolithic / kernel)
        emit(
            "modular_wfs",
            workload=f"layered:{layers}x{size}",
            sizes={"layers": layers, "layer_size": size},
            timings={"kernel": kernel, "monolithic": monolithic},
            speedups={"kernel_over_monolithic": monolithic / kernel},
        )
        rows.append(
            (
                f"{layers:3d} layers x {size:3d}",
                f"kernel {kernel * 1000:8.2f} ms",
                f"monolithic {monolithic * 1000:8.2f} ms",
                f"ratio {monolithic / kernel:6.1f}x",
            )
        )
    report("layered workload sweep: kernel vs monolithic", rows)
    assert ratios[-1] > ratios[0], (
        "the kernel's advantage must grow with workload size: "
        + ", ".join(f"{ratio:.2f}x" for ratio in ratios)
    )


@pytest.mark.repro("E15")
def test_dispatch_statistics():
    """The layered workload exercises all three per-component methods with
    the expected multiplicities, in both the kernel and a session."""
    layers, size = 4, 12
    program = layered_program(layers, size)
    session = TraceRecorder()
    engine = IncrementalEngine(
        Program(rule for rule in program if not rule.is_fact), recorder=session
    )
    engine.refresh(frozenset(rule.head for rule in program.facts()))
    counts = _method_counts(session)
    assert counts["alternating"] == layers
    assert counts["stratified"] == 2 * layers
    assert counts["horn"] == engine.component_count - 3 * layers
    kernel = TraceRecorder()
    alternating_fixpoint(program, engine="kernel", recorder=kernel)
    assert _method_counts(kernel) == counts
    # Each undefined triangle is one 3-atom component.
    triangles = [
        span.attributes
        for _, span in session.walk()
        if span.name == "component" and span.attributes["method"] == "alternating"
    ]
    assert len(triangles) == layers
    assert all(triangle["size"] == 3 for triangle in triangles)


@pytest.mark.repro("E15")
@pytest.mark.parametrize("engine", ["kernel", "monolithic"])
def test_timed_layered_wfs(benchmark, engine):
    """pytest-benchmark recording for EXPERIMENTS.md-style comparison."""
    program = layered_program(4, 40)
    if engine == "kernel":
        # A fresh context per round, so every round pays the compile.
        model = benchmark.pedantic(
            kernel_model, setup=lambda: ((build_context(program),), {}), rounds=5
        )
        assert model.false_atoms
    else:
        context = build_context(program)
        result = benchmark(lambda: alternating_fixpoint(context, keep_stages=False))
        assert result.false_atoms()
