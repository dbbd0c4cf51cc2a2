"""Experiment E11 — agreement on (locally) stratified programs (Section 2.4).

"Every locally stratified program has a total well-founded model and a
unique stable model that coincide with each other and with the perfect
model."  The benchmarks evaluate stratified workloads under the stratified
evaluator, the alternating fixpoint and the stable-model enumerator and
assert the three-way agreement, timing each evaluator for the ablation
record in EXPERIMENTS.md.

That agreement is why ``solve`` under ``auto`` runs the well-founded
kernel on stratified programs instead of the stratified evaluator.  A
guard keeps the choice honest: on a ground and a non-ground stratified
workload, ``solve(p)`` must give the model ``solve(p,
semantics="stratified")`` gives, and take at most 0.9 of its time — the
median of order-alternating paired ratios (``_paired.py``).
"""

import pytest

from _metrics import emit, timed
from _paired import paired_ratios
from _smoke import SMOKE
from repro.analysis import classify
from repro.core import alternating_fixpoint, build_context, stable_models
from repro.engine.solver import solve
from repro.games.graphs import chain_edges, complete_dag_edges, random_digraph_edges
from repro.semantics import stratified_model
from repro.workloads import (
    complement_of_transitive_closure_program,
    reachability_program,
    social_graph_program,
)


def workloads():
    yield "ntc-chain-6", complement_of_transitive_closure_program(chain_edges(6))
    yield "ntc-dag-5", complement_of_transitive_closure_program(complete_dag_edges(5))
    yield "ntc-random-6", complement_of_transitive_closure_program(
        random_digraph_edges(6, 0.3, seed=21)
    )
    yield "reach-chain-10", reachability_program(chain_edges(10), sources=["n0"])


WORKLOADS = list(workloads())
IDS = [name for name, _ in WORKLOADS]


def _record(evaluator: str, workload: str, best: float) -> None:
    emit("stratified_agreement", workload=workload, timings={evaluator: best})


@pytest.mark.repro("E11")
@pytest.mark.parametrize("name,program", WORKLOADS, ids=IDS)
def test_stratified_evaluator(benchmark, name, program):
    assert classify(program, check_local=False).is_stratified
    result, best = timed(benchmark, lambda: stratified_model(program))
    assert result.true_atoms
    _record("stratified", name, best)


@pytest.mark.repro("E11")
@pytest.mark.parametrize("name,program", WORKLOADS, ids=IDS)
def test_alternating_fixpoint_is_total_and_agrees(benchmark, name, program):
    stratified = stratified_model(program)

    afp, best = timed(benchmark, lambda: alternating_fixpoint(program))

    assert afp.is_total
    assert afp.true_atoms() == stratified.true_atoms
    _record("alternating_fixpoint", name, best)


@pytest.mark.repro("E11")
@pytest.mark.parametrize("name,program", WORKLOADS[:2], ids=IDS[:2])
def test_unique_stable_model_agrees(benchmark, name, program):
    context = build_context(program)
    afp = alternating_fixpoint(context)

    models, best = timed(benchmark, lambda: stable_models(context, afp=afp))

    assert len(models) == 1
    assert models[0].true_atoms == afp.true_atoms()
    _record("stable_enumeration", name, best)


#: ``solve`` under ``auto`` over a requested ``stratified``: the ceiling on
#: the median paired time ratio.
AUTO_CEILING = 0.9
#: Workload, program, then (pairs, calls per arm per pair) in smoke and
#: full mode; the smoke sizes keep the whole guard near 2 s.
GUARDED = [
    (
        "social-300",
        social_graph_program(300, 100, 12, seed=1),
        (5, 2) if SMOKE else (15, 4),
    ),
    (
        "ntc-random-40",
        complement_of_transitive_closure_program(random_digraph_edges(40, 0.15, seed=1)),
        (3, 1) if SMOKE else (9, 2),
    ),
]


def _render(solution) -> bytes:
    model = solution.interpretation
    lines = sorted(str(atom) for atom in model.true_atoms)
    lines.extend(sorted(f"not {atom}" for atom in model.false_atoms))
    lines.extend(sorted(f"base {atom}" for atom in solution.base))
    return "\n".join(lines).encode("utf-8")


@pytest.mark.repro("E11")
@pytest.mark.parametrize(
    "name,program,sizes", GUARDED, ids=[name for name, _, _ in GUARDED]
)
def test_auto_beats_the_stratified_evaluator(report, name, program, sizes):
    """``auto`` on a stratified program: the requested stratified
    evaluator's model, byte for byte, in at most 0.9 of its time."""
    auto = solve(program)
    stratified = solve(program, semantics="stratified")
    assert auto.semantics == "alternating-fixpoint"
    assert _render(auto) == _render(stratified)

    pairs, batch = sizes
    paired = paired_ratios(
        lambda: solve(program, semantics="stratified"),
        lambda: solve(program),
        pairs=pairs,
        batch=batch,
    )
    report(
        f"auto vs stratified on {name}",
        [
            (f"stratified {paired.baseline_seconds * 1000:9.3f} ms",),
            (f"auto       {paired.candidate_seconds * 1000:9.3f} ms",),
            (paired.describe(),),
        ],
    )
    emit(
        "stratified_agreement",
        workload=name,
        timings={"auto": paired.candidate_seconds, "stratified": paired.baseline_seconds},
        speedups={"auto_over_stratified": paired.median},
        extra={"pair_ratios": list(paired.ratios)},
    )
    assert paired.median <= AUTO_CEILING, (
        f"auto must take at most {AUTO_CEILING} of the stratified evaluator's "
        f"time on {name}: {paired.describe()}"
    )
