"""Integration tests: the recorder threaded through the real engine.

Two guarantees matter end to end.  First, instrumentation must be
invisible: solving with the default, an explicit :class:`NullRecorder`,
or a :class:`TraceRecorder` yields byte-identical rendered models, and
the null path records nothing.  Second, a :class:`TraceRecorder` must
see the documented vocabulary — the ``solve`` phase tree from the
one-shot solver, the ``refresh`` tree from an incremental session, and
the grounding/alternation/storage counters.
"""

import pytest

from repro.config import EngineConfig
from repro.engine.solver import solve
from repro.obs import NullRecorder, TraceRecorder
from repro.reporting import render_model
from repro.session import KnowledgeBase
from repro.workloads import layered_program

WIN_MOVE = """
wins(X) :- move(X, Y), not wins(Y).
move(a, b). move(b, a). move(b, c).
"""


def rendered(solution) -> str:
    return render_model(solution.interpretation, solution.base)


class TestNullRecorderIsInvisible:
    @pytest.mark.parametrize("semantics", ["auto", "well-founded"])
    def test_model_byte_identical_across_recorders(self, semantics):
        config = EngineConfig(semantics=semantics)
        null_recorder = NullRecorder()
        tracing = TraceRecorder()
        baseline = rendered(solve(WIN_MOVE, config=config))
        assert rendered(solve(WIN_MOVE, config=config, recorder=null_recorder)) == baseline
        assert rendered(solve(WIN_MOVE, config=config, recorder=tracing)) == baseline
        # The null run captured nothing; the traced run captured the tree.
        assert not hasattr(null_recorder, "spans")
        assert tracing.find("solve") is not None

    def test_layered_workload_identical_under_null_recorder(self):
        program = layered_program(3, 6)
        config = EngineConfig(semantics="well-founded")
        baseline = rendered(solve(program, config=config))
        traced = rendered(solve(program, config=config, recorder=NullRecorder()))
        assert traced == baseline


class TestSolvePhaseTree:
    def test_kernel_solve_phases_and_counters(self):
        recorder = TraceRecorder()
        program = layered_program(2, 5)
        solve(program, config=EngineConfig(semantics="well-founded"), recorder=recorder)

        root = recorder.find("solve")
        assert root is not None
        children = [span.name for span in root.children]
        # The kernel route grounds straight into the int IR: no compile span.
        assert children == ["ground", "condense", "evaluate", "assemble"]
        evaluate = root.children[children.index("evaluate")]
        assert evaluate.attributes["method"] == "kernel"

        totals = recorder.counter_totals()
        assert totals["ground.rules"] > 0
        assert totals["kernel.atoms"] > 0
        assert totals["components.total"] == evaluate.attributes["components"]
        # One undefined triangle per layer.
        assert totals["components.alternating"] == 2
        # Every counter in the vocabulary is a non-negative tally.
        assert all(value >= 0 for value in totals.values())

    def test_auto_semantics_recorded_on_the_solve_span(self):
        recorder = TraceRecorder()
        solve(WIN_MOVE, config=EngineConfig(semantics="auto"), recorder=recorder)
        assert recorder.find("solve").attributes["semantics"] == "alternating-fixpoint"
        # Resolving auto reads two flags of the rules: no phase of its own.
        assert recorder.find("classify") is None

    def test_alternating_counters_on_cyclic_program(self):
        recorder = TraceRecorder()
        solution = solve(WIN_MOVE, recorder=recorder)
        # wins(a) and wins(b) read each other negatively: one alternating
        # component, which b's escape to c decides.
        assert solution.is_true("wins", "b") and solution.is_false("wins", "a")
        totals = recorder.counter_totals()
        assert totals.get("components.alternating", 0) >= 1
        assert totals.get("kernel.stages", 0) >= 1


#: Ground rules, so the session qualifies for incremental maintenance.
GROUND_RULES = """
p :- not q.
q :- not p.
r :- base.
"""


class TestSessionRefreshTree:
    def test_incremental_refresh_spans_and_history(self):
        recorder = TraceRecorder()
        with KnowledgeBase(GROUND_RULES, recorder=recorder) as kb:
            assert kb.recorder is recorder
            assert kb.is_incremental
            assert kb.is_false("r")
            kb.assert_fact("base")
            assert kb.is_true("r")

            refreshes = [span for span in kb.recorder.spans if span.name == "refresh"]
            assert len(refreshes) == 2  # initial solve + delta maintenance
            assert refreshes[-1].attributes["mode"] == "delta"
            totals = recorder.counter_totals()
            assert totals.get("delta.components", 0) >= 1
            assert totals.get("delta.changed_atoms", 0) >= 1

            stats = kb.statistics()
            assert stats["refreshes"] == 2
            assert stats["refresh_total_s"] >= 0
            # Both figures are rounded to microseconds independently.
            assert stats["refresh_mean_s"] == pytest.approx(
                stats["refresh_total_s"] / stats["refreshes"], abs=1e-6
            )
            assert stats["refresh_modes"] == {"initial": 1, "delta": 1}
            assert stats["last_mode"] == kb.last_update.mode == "delta"

    def test_default_session_uses_null_recorder(self):
        with KnowledgeBase(WIN_MOVE) as kb:
            assert kb.recorder.enabled is False
            assert ("b",) in kb.query("wins")

    def test_store_rows_reach_statistics(self):
        with KnowledgeBase(WIN_MOVE) as kb:
            kb.solution  # force a solve, which reads the store once
            stats = kb.statistics()
            assert stats["store_rows"] == kb.fact_count()
            # The store keeps no indexes and serves no probes.
            assert "store_probes" not in stats and "store_indexes" not in stats
            assert kb.store.stats()["probes"] == 0
