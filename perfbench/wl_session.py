"""Live-session workloads: a closed loop with one caller over one
in-process ``KnowledgeBase`` built with the defaults.  Each operation
asserts or retracts one fact of a seeded churn stream and then reads the
affected relation; an update is the write plus that first read.

* ``session-ground``: the win-move game over ``random_game_edges(1000, 2,
  seed)`` with the win rule pre-ground per move.  ``auto`` resolves to
  the alternating fixpoint, so every update takes the delta path.
* ``session-nonground``: the same game, EDB and stream with the
  non-ground rule: every update is a full rebuild.
* ``session-social``: ``social_graph_stream(300, 100, 12, seed)``; ``auto``
  resolves to ``stratified``, so every update is a full rebuild.

The traced pass times the write, the ``kb.solution`` access that forces
the refresh, and the read separately, and reads the session's own
``last_update`` and store probe counters.
"""

from __future__ import annotations

import gc
import statistics
import time

import inputs
import oracles
from common import (
    Run,
    Yardstick,
    latency_metrics,
    note,
    peak_rss_mb,
    timed_loop,
)

from repro import KnowledgeBase

SETUP_REPEATS = 9
#: Yardstick samples after each set-up.
SETUP_SPEED_SAMPLES = 3
#: Length of the social stream, which the library makes as a list: more
#: operations than a run can apply, with room for the traced pass.  The
#: win-move churn is made lazily and has no end.
SOCIAL_STEPS = 4000
SOCIAL_READS = {"follows": "reach", "muted": "influencer"}
#: Yardstick samples after each update: more where an update is a rebuild.
SPEED_SAMPLES = {"session-ground": 1, "session-nonground": 2, "session-social": 2}


class Scenario:
    """Rules, facts, stream and oracle of one session workload."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        if workload == "session-social":
            social = inputs.Social(seed, SOCIAL_STEPS)
            self.rules, self.facts = social.rules, social.facts
            self._social_stream = social.stream
            self.mirror = oracles.SocialMirror(social.facts)
            self.description = "social_graph_stream(300, 100, 12, seed)"
        else:
            game = inputs.Game(seed)
            self.rules = game.ground_rules() if workload == "session-ground" else inputs.WIN_RULE
            self.facts = game.facts()
            self._game = game
            self.edges = set(game.edges)
            self.description = (
                f"win-move over random_game_edges(1000, 2, seed): {len(game.edges)} moves "
                f"present, {len(game.candidates)} held out, "
                f"{'pre-ground' if workload == 'session-ground' else 'non-ground'} rule"
            )

    def operations(self):
        """The churn stream as ``(kind, atom)`` pairs, made lazily."""
        if self.workload == "session-social":
            return ((op.kind, op.atom) for op in self._social_stream)
        return ((kind, inputs.move(*edge)) for kind, edge in self._game.stream())

    def build(self) -> KnowledgeBase:
        kb = KnowledgeBase(self.rules, facts=self.facts)
        self.read(kb, next(self.operations())[1])
        return kb

    def read(self, kb: KnowledgeBase, atom):
        """The first read after an update: the relation the update affects."""
        if self.workload == "session-social":
            return kb.query(SOCIAL_READS[atom.predicate]).to_set()
        wins = kb.query("wins")
        return wins.to_set(), wins.undefined.to_set()

    def check(self, label: str, kind: str, atom, rows) -> list[str]:
        """Apply the operation to the oracle's mirror and compare."""
        if self.workload == "session-social":
            self.mirror.apply(kind, atom)
            predicate = SOCIAL_READS[atom.predicate]
            return oracles.check_rows(label, rows, self.mirror.relation(predicate))
        edge = tuple(term.value for term in atom.args)
        if kind == "assert":
            self.edges.add(edge)
        else:
            self.edges.discard(edge)
        return oracles.check_wins(label, self.edges, *rows)


def run(run: Run, workload: str, seconds: float) -> None:
    scenario = Scenario(workload, run.seed)
    note(f"session {workload}: {scenario.description}")
    builds = []
    kb = None
    setup_speed = Yardstick(repeats=SETUP_SPEED_SAMPLES)
    for _ in range(SETUP_REPEATS):
        if kb is not None:
            # Only one session is alive while the next one is built, so
            # the memory high-water mark is that of a single session.
            kb.close()
            kb = None
            gc.collect()
        started = time.perf_counter()
        kb = scenario.build()
        builds.append(time.perf_counter() - started)
        setup_speed.sample()
    run.metric("setup_s", setup_speed.scaled_median(builds), "s")
    note(f"setup: session built through its first read {SETUP_REPEATS} times, "
         f"median {statistics.median(builds):.4f} s "
         f"(yardstick {setup_speed.median_ms:.3f} ms)")
    note(f"# session {workload}: semantics {kb.semantics}  incremental {kb.is_incremental}")

    operations = scenario.operations()
    speed = Yardstick(repeats=SPEED_SAMPLES[workload])
    latencies = _untraced_pass(run, scenario, kb, operations, seconds, speed)
    latency_metrics(run, latencies, f"update {workload}", speed)
    run.metric("peak_rss_mb", peak_rss_mb(), "MB")

    if run.trace:
        _traced_pass(run, scenario, kb, operations, seconds, latencies)

    got = oracles.digest(kb.solution.interpretation, kb.solution.base)
    want = oracles.reference_digest(oracles.session_program(kb))
    for error in oracles.compare_models(f"{workload} final state", got, want):
        run.fail(error)
    kb.close()


def _apply(kb: KnowledgeBase, kind: str, atom) -> bool:
    return kb.assert_fact(atom) if kind == "assert" else kb.retract_fact(atom)


def _untraced_pass(run, scenario, kb, operations, seconds, speed) -> list[float]:
    latencies = []
    for step in timed_loop(seconds, speed):
        try:
            kind, atom = next(operations)
        except StopIteration:
            note("churn stream exhausted before the time was up")
            break
        run.attempted += 1
        try:
            started = time.perf_counter()
            changed = _apply(kb, kind, atom)
            rows = scenario.read(kb, atom)
            latencies.append(time.perf_counter() - started)
        except Exception as error:  # noqa: BLE001 - a failed update is a failed step
            run.fail(f"step {step}: {type(error).__name__}: {error}")
            continue
        errors = scenario.check(f"step {step} ({kind} {atom})", kind, atom, rows)
        if not changed:
            errors.append(f"step {step}: {kind} {atom} did not change the EDB")
        for error in errors:
            run.fail(error)
    return latencies


def _traced_pass(run, scenario, kb, operations, seconds, untraced) -> None:
    samples: dict[str, list[float]] = {
        name: [] for name in ("write", "refresh", "maintain", "read", "total")
    }
    probes, recomputed, reuse = [], [], []
    modes: dict[str, int] = {}
    for step in timed_loop(seconds):
        try:
            kind, atom = next(operations)
        except StopIteration:
            break
        run.attempted += 1
        probes_before = kb.store.stats()["probes"]
        t0 = time.perf_counter()
        _apply(kb, kind, atom)
        t1 = time.perf_counter()
        kb.solution
        t2 = time.perf_counter()
        rows = scenario.read(kb, atom)
        t3 = time.perf_counter()
        update = kb.last_update
        samples["write"].append(t1 - t0)
        samples["refresh"].append(t2 - t1)
        samples["read"].append(t3 - t2)
        samples["total"].append(t3 - t0)
        samples["maintain"].append(update.elapsed)
        probes.append(kb.store.stats()["probes"] - probes_before)
        modes[update.mode] = modes.get(update.mode, 0) + 1
        recomputed.append(update.components_recomputed)
        total = update.components_total
        reuse.append(update.components_reused / total if total else 0.0)
        for error in scenario.check(f"traced step {step}", kind, atom, rows):
            run.fail(error)

    def median_ms(name: str) -> float:
        return statistics.median(samples[name]) * 1000

    run.metric("store_write_ms", median_ms("write"), "ms")
    run.metric("refresh_ms", median_ms("refresh"), "ms")
    run.metric("maintain_ms", median_ms("maintain"), "ms")
    run.metric("read_ms", median_ms("read"), "ms")
    run.metric("store_probes", statistics.median(probes), "count")
    run.metric("mode_delta", modes.get("delta", 0), "count")
    run.metric("mode_rebuild", modes.get("rebuild", 0), "count")
    run.metric("components_recomputed", statistics.median(recomputed), "count")
    run.metric("reuse_ratio", statistics.median(reuse), "ratio")
    run.metric("ops", len(samples["total"]), "count")
    untraced_p50 = statistics.median(untraced) * 1000
    run.metric("trace_overhead_ms", median_ms("total") - untraced_p50, "ms")
    note(
        f"traced split (median ms, n={len(samples['total'])}): write {median_ms('write'):.3f}  "
        f"refresh {median_ms('refresh'):.3f} (maintain {median_ms('maintain'):.3f})  "
        f"read {median_ms('read'):.3f}  modes {modes}"
    )
