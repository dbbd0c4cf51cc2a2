"""Experiment E19 — budget metering must be (nearly) free when unused.

The :mod:`repro.resilience` budget meter threads checkpoints through every
hot loop of the solver (grounding, compile, per-component dispatch,
alternating stages, unfounded-set iterations).  Like the recorder before
it (E18), the acceptance criterion is a guard: a one-shot ``solve``
governed by a *generous* budget — one that never trips — may cost at most
3% over the unbudgeted call path on the bench_modular_wfs workload,
decided from the median per-pair ratio of order-alternating batches
(``_paired.py``).  Unbudgeted runs
see the no-op ``NULL_METER`` singleton, so their per-iteration cost is one
attribute load; budgeted runs pay a strided clock check.  This guard
catches anyone later tightening the stride or moving per-iteration work
outside it.

The benchmark also asserts the budgeted and unbudgeted models are
byte-identical: metering may only observe, never steer.

Run with ``pytest benchmarks/bench_resilience_overhead.py -s``.
"""

import pytest

from _metrics import emit
from _paired import paired_ratios
from _smoke import trim
from repro.config import EngineConfig
from repro.engine.solver import solve
from repro.resilience import Budget
from repro.workloads import layered_program

# The bench_modular_wfs acceptance workload (trimmed in smoke mode, where
# trim() keeps the head of the list and [-1] then picks it).
LAYERS, SIZE = trim([(4, 40), (12, 200)], keep=1)[-1]
#: Acceptance ceiling plus a small allowance for timer noise on shared CI
#: runners — even the median of paired ratios of near-identical code paths
#: jitters by a percent or two at millisecond scales.
OVERHEAD_CEILING = 1.03
NOISE_MARGIN = 1.02

#: Generous enough that neither limit can trip on this workload: the run
#: exercises the full metered path (deadline arithmetic, step counting)
#: without ever aborting.
GENEROUS = EngineConfig(budget=Budget(max_seconds=3600.0, max_steps=10**9))


def _render(model) -> bytes:
    lines = sorted(str(atom) for atom in model.true_atoms)
    lines.extend(sorted(f"not {atom}" for atom in model.false_atoms))
    return "\n".join(lines).encode("utf-8")


@pytest.mark.repro("E19")
def test_generous_budget_overhead_acceptance(report):
    """A never-tripping budget ≤3% over the unmetered path."""
    program = layered_program(LAYERS, SIZE)

    # Warm both arms — first solves pay one-off costs (allocator growth,
    # branch warmup) that would otherwise land on whichever arm runs first
    # and masquerade as metering overhead.
    for _ in range(2):
        solve(program)
        solve(program, config=GENEROUS)

    # Paired, order-alternating batches: drift (thermal, scheduler) hits
    # both arms of a pair alike, and the median ratio decides.
    paired = paired_ratios(lambda: solve(program), lambda: solve(program, config=GENEROUS))
    overhead = paired.median
    plain, budgeted = paired.baseline_seconds, paired.candidate_seconds
    report(
        f"resilience overhead on layered {LAYERS}x{SIZE}",
        [
            (f"unbudgeted      {plain * 1000:9.3f} ms",),
            (f"generous budget {budgeted * 1000:9.3f} ms",),
            (paired.describe(),),
        ],
    )
    emit(
        "resilience",
        workload=f"layered:{LAYERS}x{SIZE}",
        sizes={"layers": LAYERS, "layer_size": SIZE},
        timings={"unbudgeted": plain, "generous_budget": budgeted},
        speedups={"budgeted_over_unbudgeted": overhead},
        extra={"pair_ratio_quartiles": paired.quartiles},
    )
    assert overhead <= OVERHEAD_CEILING * NOISE_MARGIN, (
        f"budget metering overhead must stay within 3%: {paired.describe()}, "
        f"unbudgeted {plain * 1000:.3f} ms, budgeted {budgeted * 1000:.3f} ms "
        f"per solve ({(overhead - 1) * 100:.1f}% over)"
    )


@pytest.mark.repro("E19")
def test_budgeted_model_identical():
    """Metering may only observe: same partial model byte-for-byte with
    and without a governing budget."""
    program = layered_program(4, 20)
    plain = solve(program)
    budgeted = solve(program, config=GENEROUS)
    assert _render(plain.interpretation) == _render(budgeted.interpretation)
