"""One-shot workloads: a closed loop with one caller.  Each step calls
``repro.solve(text)`` with the defaults and reads the answer relation
(its true and its undefined rows).

The traced pass makes the same calls one layer at a time, mirroring what
``solve_configured`` does: ``parse_program`` -> ``resolve_auto_semantics``
-> ``build_context`` -> the evaluator for the resolved semantics -> the
``Solution`` and the answer read.
"""

from __future__ import annotations

import statistics
import time

import inputs
import oracles
from common import (
    Run,
    ImportYardstick,
    Yardstick,
    import_seconds,
    latency_metrics,
    note,
    peak_rss_mb,
    timed_loop,
)

from repro import EngineConfig, Solution, alternating_fixpoint, parse_program, solve
from repro.core.context import build_context
from repro.core.wellfounded import well_founded_model
from repro.engine.solver import resolve_auto_semantics
from repro.semantics.horn import horn_minimum_model
from repro.semantics.stratified import stratified_model

IMPORT_REPEATS = 9
#: Yardstick samples after each solve: a solve takes a hundred times as long.
SPEED_SAMPLES = 5
PHASES = ("parse", "classify", "ground", "evaluate", "assemble")


def run(run: Run, program_name: str, seconds: float) -> None:
    setup_speed = ImportYardstick()
    imports = []
    for _ in range(IMPORT_REPEATS):
        imports.append(import_seconds("repro"))
        setup_speed.sample()
    run.metric("setup_s", setup_speed.scaled_median(imports), "s")
    note(f"setup: import repro in {IMPORT_REPEATS} fresh interpreters, "
         f"median {statistics.median(imports):.4f} s "
         f"(reference import {setup_speed.median_ms:.1f} ms)")

    text = inputs.solve_program(program_name, run.seed)
    answer = inputs.SOLVE_PROGRAMS[program_name][0]
    note(f"program {program_name}: {inputs.SOLVE_PROGRAMS[program_name][1]}, "
         f"{len(text)} characters, answer relation {answer}")

    # Untimed warm-up; its model is the one every later step must repeat.
    warm = solve(text)
    note(f"semantics auto -> {warm.semantics}")
    baseline = oracles.digest(warm.interpretation, warm.base)
    del warm

    speed = Yardstick(repeats=SPEED_SAMPLES)
    latencies = _untraced_pass(run, text, answer, baseline, seconds, speed)
    latency_metrics(run, latencies, f"solve {program_name}", speed)
    run.metric("peak_rss_mb", peak_rss_mb(), "MB")

    if run.trace:
        _traced_pass(run, text, answer, baseline, seconds, latencies)

    reference = oracles.reference_digest(parse_program(text))
    for error in oracles.compare_models(f"solve({program_name})", baseline, reference):
        run.fail(error)


def _untraced_pass(run, text, answer, baseline, seconds, speed) -> list[float]:
    latencies = []
    for step in timed_loop(seconds, speed):
        run.attempted += 1
        try:
            started = time.perf_counter()
            solution = solve(text)
            solution.relation(answer)
            solution.undefined_relation(answer)
            latencies.append(time.perf_counter() - started)
        except Exception as error:  # noqa: BLE001 - a failed solve is a failed step
            run.fail(f"step {step}: {type(error).__name__}: {error}")
            continue
        got = oracles.digest(solution.interpretation, solution.base)
        for error in oracles.compare_models(f"step {step}", got, baseline):
            run.fail(error)
    return latencies


def evaluate(semantics: str, program, context, config: EngineConfig):
    """The evaluator ``solve_configured`` dispatches to for *semantics*."""
    if semantics == "alternating-fixpoint":
        return alternating_fixpoint(
            context, strategy=config.strategy, engine=config.engine
        ).model
    if semantics == "well-founded":
        return well_founded_model(
            context, strategy=config.strategy, engine=config.engine
        ).model
    if semantics == "stratified":
        return stratified_model(
            program, limits=config.limits, strategy=config.strategy
        ).interpretation
    if semantics == "horn":
        return horn_minimum_model(context, strategy=config.strategy).interpretation
    raise ValueError(f"auto resolved to {semantics!r}, which this benchmark does not trace")


def _traced_pass(run, text, answer, baseline, seconds, untraced) -> None:
    config = EngineConfig()
    phases: dict[str, list[float]] = {phase: [] for phase in PHASES}
    totals = []
    rules = atoms = 0
    for step in timed_loop(seconds):
        run.attempted += 1
        t0 = time.perf_counter()
        program = parse_program(text)
        t1 = time.perf_counter()
        semantics = resolve_auto_semantics(program)
        t2 = time.perf_counter()
        context = build_context(
            program, limits=config.limits, grounder=config.resolved_grounder
        )
        t3 = time.perf_counter()
        interpretation = evaluate(semantics, program, context, config)
        t4 = time.perf_counter()
        solution = Solution(
            program=program,
            semantics=semantics,
            interpretation=interpretation,
            base=frozenset(context.base),
            strategy=config.strategy,
            engine=config.engine,
            config=config,
            context=context,
        )
        solution.relation(answer)
        solution.undefined_relation(answer)
        t5 = time.perf_counter()
        for phase, start, end in zip(PHASES, (t0, t1, t2, t3, t4), (t1, t2, t3, t4, t5)):
            phases[phase].append(end - start)
        totals.append(t5 - t0)
        rules, atoms = len(context.rules), len(context.base)
        got = oracles.digest(solution.interpretation, solution.base)
        for error in oracles.compare_models(f"recomposed step {step}", got, baseline):
            run.fail(error)

    medians = {phase: statistics.median(samples) * 1000 for phase, samples in phases.items()}
    for phase, value in medians.items():
        run.metric(f"{phase}_ms", value, "ms")
    untraced_p50 = statistics.median(untraced) * 1000
    run.metric("unattributed_ms", untraced_p50 - sum(medians.values()), "ms")
    run.metric("trace_overhead_ms", statistics.median(totals) * 1000 - untraced_p50, "ms")
    run.metric("ground_rules", rules, "count")
    run.metric("ground_atoms", atoms, "count")
    run.metric("ops", len(totals), "count")
    split = "  ".join(f"{phase} {value:.2f}" for phase, value in medians.items())
    note(f"traced split (median ms, n={len(totals)}): {split}  "
         f"untraced p50 {untraced_p50:.2f}")
