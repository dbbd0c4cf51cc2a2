"""Experiment E19 — streaming delta maintenance under high-churn feeds.

The incremental session (E16) invalidates whole SCC components per
update; :mod:`repro.delta` maintains per-component derivation state at
*atom* granularity instead — counting for one-pass components, DRed for
recursive definite ones — so redundant-support churn (the common case on
a social graph where every hop has parallel supports) costs O(affected
derivations), and propagation stops the moment no verdict moves.  This
benchmark replays seeded churn streams from :mod:`repro.workloads.streams`
and

* measures sustained assert/retract throughput and p99 refresh latency
  of atom-level ``maintenance="delta"`` against component-level
  ``maintenance="component"`` on the same engine, same stream — the
  acceptance floor is **≥5×** update throughput;
* asserts the maintained model **byte-identical** to a from-scratch
  solve at checkpoints throughout the stream, and
  ``UpdateStats.mode == "delta"`` on every fast-path refresh;
* replays a counting-only access-policy stream through a full
  :class:`~repro.session.KnowledgeBase` session, and a coalesced window
  of writes through the :class:`~repro.service.QueryService` writer
  (``refresh="coalesce"``), asserting one shared epoch per window;
* churns the paper's *non-ground* win–move rule through a default
  session, which grounds incrementally: ``mode == "delta"`` on every step,
  and true and undefined atoms equal to a from-scratch solve at
  checkpoints (the grounding it keeps across retractions may add atoms
  that are false, so false atoms and the base are not compared).

Run with ``pytest benchmarks/bench_streaming.py -s``; smoke mode
(``REPRO_BENCH_SMOKE=1``) trims stream lengths but keeps every assertion,
including the ≥5× floor.
"""

from __future__ import annotations

import random
import threading
import time

import pytest

from _metrics import emit
from _smoke import SMOKE
from repro.config import EngineConfig
from repro.datalog.atoms import Atom
from repro.datalog.rules import Program, Rule
from repro.datalog.terms import Constant
from repro.engine.solver import solve_configured
from repro.games import random_game_edges
from repro.service import QueryService
from repro.session import IncrementalEngine, KnowledgeBase
from repro.workloads import access_policy_stream, social_graph_stream

WFS = EngineConfig(semantics="well-founded")

PEOPLE = 300 if SMOKE else 900
STEPS = 160 if SMOKE else 400
CHECKPOINTS = 4
POLICY_USERS = 24 if SMOKE else 60
POLICY_STEPS = 120 if SMOKE else 300
GAME_NODES = 300 if SMOKE else 1000
GAME_HELD_OUT = 30 if SMOKE else 100
GAME_STEPS = 120 if SMOKE else 400
WIN_RULE = "wins(X) :- move(X, Y), not wins(Y)."


def _split(program: Program) -> tuple[Program, set]:
    """A generated program as (rules-only program, initial fact atoms)."""
    rules = Program(rule for rule in program if not rule.is_fact)
    facts = {rule.head for rule in program.facts()}
    return rules, facts


def _model_bytes(model, base) -> bytes:
    """Canonical byte serialisation of a partial model + atom universe."""
    lines = sorted(str(atom) for atom in model.true_atoms)
    lines.extend(sorted(f"not {atom}" for atom in model.false_atoms))
    lines.extend(sorted(f"base {atom}" for atom in base))
    return "\n".join(lines).encode("utf-8")


def _scratch_bytes(rules: Program, facts: set) -> bytes:
    program = Program(list(rules) + [Rule(atom) for atom in sorted(facts, key=str)])
    solution = solve_configured(program, WFS)
    return _model_bytes(solution.interpretation, solution.base)


def _percentile(samples: list[float], fraction: float) -> float:
    ordered = sorted(samples)
    index = min(len(ordered) - 1, max(0, round(fraction * (len(ordered) - 1))))
    return ordered[index]


def _replay(maintenance: str, rules: Program, facts: set, ops, checkpoints=()):
    """Replay *ops* against one engine; returns (latencies, modes, engine).

    At each checkpoint index the maintained model is asserted
    byte-identical to a from-scratch solve of the current program.
    """
    engine = IncrementalEngine(rules, maintenance=maintenance)
    current = set(facts)
    engine.refresh(frozenset(current), None)
    latencies: list[float] = []
    modes: set[str] = set()
    for index, op in enumerate(ops):
        (current.add if op.kind == "assert" else current.discard)(op.atom)
        start = time.perf_counter()
        stats = engine.refresh(frozenset(current), {op.atom})
        latencies.append(time.perf_counter() - start)
        modes.add(stats.mode)
        if index in checkpoints:
            maintained = _model_bytes(engine.model, engine.base)
            assert maintained == _scratch_bytes(rules, current), (
                f"{maintenance} model diverged from from-scratch at op {index}"
            )
    return latencies, modes, engine


@pytest.mark.repro("E19")
def test_streaming_throughput_acceptance(report):
    """≥5× sustained update throughput for atom-level delta maintenance
    over component-level re-solve on the social-graph churn stream, with
    byte-identical checkpoints and mode=="delta" throughout."""
    program, ops = social_graph_stream(
        PEOPLE, extra_edges=PEOPLE // 3, back_edges=12, steps=STEPS, seed=7
    )
    rules, facts = _split(program)
    checkpoints = {(i + 1) * len(ops) // CHECKPOINTS - 1 for i in range(CHECKPOINTS)}

    delta_lat, delta_modes, delta_engine = _replay(
        "delta", rules, facts, ops, checkpoints
    )
    comp_lat, comp_modes, comp_engine = _replay(
        "component", rules, facts, ops, checkpoints
    )
    assert delta_modes == {"delta"}, f"fast path not taken: {delta_modes}"
    assert comp_modes == {"incremental"}
    assert delta_engine.model == comp_engine.model

    delta_total, comp_total = sum(delta_lat), sum(comp_lat)
    throughput = len(ops) / delta_total
    speedup = comp_total / delta_total
    methods = delta_engine.last_update.methods
    report(
        f"streaming churn ({PEOPLE} people, {len(ops)} ops)",
        [
            (f"delta      {delta_total * 1000:9.1f} ms total, "
             f"p99 {_percentile(delta_lat, 0.99) * 1000:7.3f} ms, "
             f"{throughput:8.0f} ops/s",),
            (f"component  {comp_total * 1000:9.1f} ms total, "
             f"p99 {_percentile(comp_lat, 0.99) * 1000:7.3f} ms",),
            (f"speedup    {speedup:9.1f}x  (last methods: {dict(methods)})",),
        ],
    )
    emit(
        "streaming",
        workload=f"social-graph:{PEOPLE}p+{PEOPLE // 3}e+12b",
        sizes={"people": PEOPLE, "operations": len(ops)},
        timings={
            "delta_total": delta_total,
            "component_total": comp_total,
            "delta_p99": _percentile(delta_lat, 0.99),
            "component_p99": _percentile(comp_lat, 0.99),
        },
        speedups={"delta_over_component": speedup},
        extra={
            "throughput_ops_per_s": round(throughput, 1),
            "checkpoints": CHECKPOINTS,
        },
    )
    assert speedup >= 5, (
        f"atom-level delta maintenance must sustain ≥5x component-level "
        f"re-solve throughput: delta {delta_total * 1000:.1f} ms, "
        f"component {comp_total * 1000:.1f} ms ({speedup:.1f}x)"
    )


@pytest.mark.repro("E19")
def test_policy_stream_counting_path(report):
    """The access-policy stream is pure counter maintenance end to end —
    through the full session surface, byte-identical at every step."""
    program, ops = access_policy_stream(POLICY_USERS, steps=POLICY_STEPS, seed=11)
    kb = KnowledgeBase(program, config=WFS)
    kb.solution
    latencies: list[float] = []
    methods: set[str] = set()
    for op in ops:
        start = time.perf_counter()
        if op.kind == "assert":
            kb.assert_fact(op.atom)
        else:
            kb.retract_fact(op.atom)
        kb.solution
        latencies.append(time.perf_counter() - start)
        assert kb.last_update.mode == "delta"
        methods.update(kb.last_update.methods)
    scratch = solve_configured(kb._program(), WFS)
    assert _model_bytes(kb.solution.interpretation, kb.solution.base) == _model_bytes(
        scratch.interpretation, scratch.base
    )
    assert methods <= {"counting"}, f"expected pure counting, saw {methods}"
    total = sum(latencies)
    report(
        f"access-policy churn ({POLICY_USERS} users, {len(ops)} ops, session)",
        [
            (f"total {total * 1000:9.1f} ms, "
             f"p99 {_percentile(latencies, 0.99) * 1000:7.3f} ms, "
             f"{len(ops) / total:8.0f} ops/s",),
        ],
    )
    emit(
        "streaming",
        workload=f"access-policy:{POLICY_USERS}u",
        sizes={"users": POLICY_USERS, "operations": len(ops)},
        timings={"session_total": total, "session_p99": _percentile(latencies, 0.99)},
        extra={"methods": sorted(methods)},
    )


@pytest.mark.repro("E19")
def test_coalesced_service_windows(report):
    """Concurrent writers against a ``refresh="coalesce"`` service land in
    shared refresh windows: fewer refreshes than writes, every write
    acknowledged, and the final model identical to from-scratch."""
    writers = 4
    per_writer = 15 if SMOKE else 40
    program, ops = access_policy_stream(
        POLICY_USERS, steps=writers * per_writer, seed=13
    )
    kb = KnowledgeBase(program, config=WFS.replace(refresh="coalesce"))
    chunks = [ops[i::writers] for i in range(writers)]
    outcomes: list[int] = []
    failures: list[BaseException] = []
    lock = threading.Lock()
    with QueryService(kb, queue_size=writers * per_writer) as service:

        def run(chunk):
            try:
                for op in chunk:
                    outcome = service.submit(((op.kind, op.atom),))
                    with lock:
                        outcomes.append(outcome.epoch)
            except BaseException as error:  # noqa: BLE001 - surfaced below
                failures.append(error)

        started = time.perf_counter()
        threads = [threading.Thread(target=run, args=(chunk,)) for chunk in chunks]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - started
        stats = service.stats()
    assert not failures, failures
    assert len(outcomes) == len(ops)
    counters = stats["counters"]
    coalesced = counters.get("service.coalesced_requests", 0)
    windows = counters.get("service.coalesced_windows", 0)
    # Windows share one epoch per refresh: distinct epochs < acknowledged
    # writes whenever any window coalesced more than one request.
    assert counters.get("service.writes_applied", 0) == len(ops)
    scratch = solve_configured(kb._program(), WFS)
    assert _model_bytes(kb.solution.interpretation, kb.solution.base) == _model_bytes(
        scratch.interpretation, scratch.base
    )
    report(
        f"coalesced service churn ({writers} writers x {len(ops) // writers} ops)",
        [
            (f"total {elapsed * 1000:9.1f} ms, {len(ops) / elapsed:8.0f} ops/s",),
            (f"windows {windows}, coalesced requests {coalesced}, "
             f"epochs {len(set(outcomes))}/{len(outcomes)}",),
        ],
    )
    emit(
        "streaming",
        workload=f"service-coalesce:{writers}w",
        sizes={"writers": writers, "operations": len(ops)},
        timings={"service_total": elapsed},
        extra={
            "coalesced_windows": windows,
            "coalesced_requests": coalesced,
            "distinct_epochs": len(set(outcomes)),
        },
    )


def _true_and_undefined(solution) -> bytes:
    """True and undefined atoms, canonically serialised."""
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


@pytest.mark.repro("E19")
def test_non_ground_win_move_churn(report):
    """The non-ground win rule, churned through a default session: every
    update takes the delta path (incremental grounding), and checkpoints
    agree with a from-scratch solve on every true and undefined atom."""
    moves = [
        Atom("move", (Constant(x), Constant(y)))
        for x, y in random_game_edges(GAME_NODES, 2, seed=5)
    ]
    generator = random.Random(5)
    absent = generator.sample(moves, GAME_HELD_OUT)
    held_out = set(absent)
    present = [move for move in moves if move not in held_out]
    kb = KnowledgeBase(WIN_RULE, facts=present)
    kb.solution
    assert kb.is_incremental
    checkpoints = {(i + 1) * GAME_STEPS // CHECKPOINTS - 1 for i in range(CHECKPOINTS)}
    latencies: list[float] = []
    rules_added = 0
    for step in range(GAME_STEPS):
        # Alternate retracting a present move and asserting an absent one,
        # so every operation is a real mutation and the EDB keeps its size.
        pool = present if step % 2 == 0 else absent
        move = pool.pop(generator.randrange(len(pool)))
        start = time.perf_counter()
        if step % 2 == 0:
            kb.retract_fact(move)
            absent.append(move)
        else:
            kb.assert_fact(move)
            present.append(move)
        kb.solution
        latencies.append(time.perf_counter() - start)
        assert kb.last_update.mode == "delta", kb.last_update.describe()
        rules_added += kb.last_update.rules_added
        if step in checkpoints:
            scratch = solve_configured(kb._program(), kb.config)
            assert _true_and_undefined(kb.solution) == _true_and_undefined(scratch), (
                f"non-ground session diverged from from-scratch at step {step}"
            )
    total = sum(latencies)
    report(
        f"non-ground win-move churn ({GAME_NODES} nodes, {GAME_STEPS} ops, session)",
        [
            (f"total {total * 1000:9.1f} ms, "
             f"p99 {_percentile(latencies, 0.99) * 1000:7.3f} ms, "
             f"{GAME_STEPS / total:8.0f} ops/s, {rules_added} ground rules added",),
        ],
    )
    emit(
        "streaming",
        workload=f"win-move-nonground:{GAME_NODES}n",
        sizes={"nodes": GAME_NODES, "operations": GAME_STEPS},
        timings={"session_total": total, "session_p99": _percentile(latencies, 0.99)},
        extra={"rules_added": rules_added, "checkpoints": CHECKPOINTS},
    )
