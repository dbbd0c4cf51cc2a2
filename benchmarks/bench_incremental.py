"""Experiment E16 — incremental model maintenance versus from-scratch solving.

A deductive database is updated far more often than its rule set changes.
The :class:`repro.session.KnowledgeBase` keeps the component-wise
well-founded solution warm: an ``assert_fact``/``retract_fact`` invalidates
only the SCC components of the atom dependency graph reachable (in the
dependent direction) from the changed atoms, re-solves just those with
:func:`repro.core.modular.solve_component`, and reuses the frozen verdicts
of everything else.

On the ``layered_program`` workload a single fact asserted into the top
layer touches one layer's negation chain out of ``layers`` — the affected
region is a constant fraction of one layer while a from-scratch solve by
the compiled kernel (compile plus evaluation) pays for the whole program,
so update latency is sublinear in program size.  The acceptance
criterion: at 12 layers × 200, the incremental refresh re-evaluates only
the affected components (asserted on the
:class:`~repro.session.UpdateStats` component counters) and is ≥5×
faster than a from-scratch kernel solve, with models byte-identical to
from-scratch at every step.

Run with ``pytest benchmarks/bench_incremental.py -s``.
"""

import time

import pytest

from _metrics import emit
from _smoke import trim
from repro.config import EngineConfig
from repro.core.context import build_context
from repro.datalog.rules import Program
from repro.engine.solver import solve_configured
from repro.kernel import kernel_model
from repro.session import KnowledgeBase
from repro.workloads import layered_program

ACCEPTANCE_LAYERS = 12
ACCEPTANCE_SIZE = 200
SCALING_SWEEP = trim([(3, 60), (6, 120), (12, 200)], keep=2)
REPEAT = 5

WFS = EngineConfig(semantics="well-founded")


def _top_layer_fact(layers: int, size: int) -> str:
    """A fact whose dependents are confined to the top layer's chain: the
    chain's highest rung occurs only in rule bodies, so asserting it flips
    the alternation phase of that one chain and nothing below."""
    return f"chain({layers - 1}, {size - 1})"


def _best_update(kb: KnowledgeBase, fact: str) -> float:
    """Best assert→refresh latency over REPEAT assert/retract round trips
    (the retract restores the baseline so every assert sees the same
    model)."""
    best = float("inf")
    for _ in range(REPEAT):
        start = time.perf_counter()
        kb.assert_fact(fact)
        kb.solution  # force the refresh
        best = min(best, time.perf_counter() - start)
        kb.retract_fact(fact)
        kb.solution
    return best


def _best_scratch(program) -> float:
    """Best from-scratch kernel solve over a context built fresh for each
    repetition: grounding excluded (the toughest fair baseline), compile
    included, since the IR is what a one-shot solve derives from the
    grounding before it evaluates."""
    best = float("inf")
    for _ in range(min(REPEAT, 3)):
        context = build_context(program)
        start = time.perf_counter()
        kernel_model(context)
        best = min(best, time.perf_counter() - start)
    return best


def _assert_matches_scratch(kb: KnowledgeBase) -> None:
    scratch = solve_configured(Program.union(kb.store.as_program(), kb.rules), WFS)
    assert kb.solution.interpretation == scratch.interpretation, (
        "incrementally maintained model diverged from from-scratch solve"
    )
    assert kb.solution.base == scratch.base, "atom universe diverged"


@pytest.mark.repro("E16")
def test_single_fact_update_acceptance(report):
    """≥5× over from-scratch at 12×200, with only the affected components
    re-evaluated and the model identical to from-scratch at every step."""
    program = layered_program(ACCEPTANCE_LAYERS, ACCEPTANCE_SIZE)
    kb = KnowledgeBase(program, config=WFS)
    kb.solution  # initial solve
    assert kb.is_incremental
    total = kb.last_update.components_total

    fact = _top_layer_fact(ACCEPTANCE_LAYERS, ACCEPTANCE_SIZE)
    kb.assert_fact(fact)
    _assert_matches_scratch(kb)
    stats = kb.last_update
    assert stats.mode == "delta"
    # Only the top layer's chain (plus its bridge) is downstream of the
    # asserted rung: a sliver of the program, not proportional to it.
    assert stats.components_recomputed <= ACCEPTANCE_SIZE + 2
    assert stats.components_recomputed < total / 5
    assert stats.components_reused == total - stats.components_recomputed
    kb.retract_fact(fact)
    _assert_matches_scratch(kb)

    update = _best_update(kb, fact)
    scratch = _best_scratch(program)
    report(
        f"incremental update vs from-scratch kernel ({ACCEPTANCE_LAYERS}x{ACCEPTANCE_SIZE})",
        [
            (f"components {total}, recomputed {stats.components_recomputed} "
             f"({stats.reuse_fraction:.0%} reused)",),
            (f"update     {update * 1000:9.3f} ms",),
            (f"scratch    {scratch * 1000:9.3f} ms",),
            (f"speedup    {scratch / update:9.1f}x",),
        ],
    )
    emit(
        "incremental",
        workload=f"layered:{ACCEPTANCE_LAYERS}x{ACCEPTANCE_SIZE}",
        sizes={
            "components": total,
            "components_recomputed": stats.components_recomputed,
        },
        timings={"incremental_update": update, "from_scratch": scratch},
        speedups={"incremental_over_scratch": scratch / update},
        extra={"reuse_fraction": round(stats.reuse_fraction, 4)},
    )
    assert scratch >= 5 * update, (
        f"incremental refresh must be ≥5× faster than from-scratch: "
        f"update {update * 1000:.3f} ms, scratch {scratch * 1000:.3f} ms "
        f"({scratch / update:.1f}x)"
    )


@pytest.mark.repro("E16")
def test_update_latency_sublinear(report):
    """Update latency must grow strictly slower than from-scratch solve
    time: the incremental advantage widens with program size."""
    rows = []
    ratios = []
    for layers, size in SCALING_SWEEP:
        program = layered_program(layers, size)
        kb = KnowledgeBase(program, config=WFS)
        kb.solution
        fact = _top_layer_fact(layers, size)
        update = _best_update(kb, fact)
        scratch = _best_scratch(program)
        ratios.append(scratch / update)
        emit(
            "incremental",
            workload=f"layered:{layers}x{size}",
            sizes={"layers": layers, "layer_size": size},
            timings={"incremental_update": update, "from_scratch": scratch},
            speedups={"incremental_over_scratch": scratch / update},
        )
        rows.append(
            (
                f"{layers:3d} layers x {size:3d}",
                f"update {update * 1000:8.3f} ms",
                f"scratch {scratch * 1000:8.3f} ms",
                f"ratio {scratch / update:6.1f}x",
            )
        )
    report("update latency vs from-scratch across sizes", rows)
    assert ratios[-1] > ratios[0], (
        "update latency must be sublinear in program size (widening ratio): "
        + ", ".join(f"{ratio:.2f}x" for ratio in ratios)
    )


@pytest.mark.repro("E16")
def test_floating_fact_touches_nothing():
    """A fact no rule mentions refreshes in O(1): zero components."""
    kb = KnowledgeBase(layered_program(3, 20), config=WFS)
    kb.solution
    kb.assert_fact("audit_marker(1)")
    assert kb.is_true("audit_marker", 1)
    stats = kb.last_update
    assert stats.mode == "delta"
    assert stats.components_recomputed == 0
    assert stats.floating_changed == 1
    kb.retract_fact("audit_marker(1)")
    assert kb.is_false("audit_marker", 1)


@pytest.mark.repro("E16")
def test_batched_updates_pay_one_refresh(report):
    """A batch of updates costs one refresh covering the union of the
    affected regions — not one refresh per mutation."""
    layers, size = trim([(8, 100)], keep=1)[0]
    program = layered_program(layers, size)
    kb = KnowledgeBase(program, config=WFS)
    kb.solution
    before = kb.last_update

    with kb.batch():
        for layer in range(layers):
            kb.assert_fact(f"chain({layer}, {size - 1})")
    kb.solution
    stats = kb.last_update
    assert stats.mode == "delta"
    assert stats.changed == layers
    _assert_matches_scratch(kb)
    report(
        "batched update",
        [(f"{layers} asserts -> one refresh: {stats.describe()}",)],
    )
    assert before is not stats
