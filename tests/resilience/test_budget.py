"""Budget enforcement: every fixpoint phase honours the one Budget.

The contract under test (repro.resilience.budget): a Budget carried on
EngineConfig aborts the evaluation from whichever phase is running when a
limit trips — grounding, semi-naive propagation, alternation stages,
unfounded-set iterations, per-component dispatch and the stages of one
alternating component, incremental refresh — raising the BudgetExceeded / Cancelled hierarchy with the
tripping phase attached, and leaving the session recoverable.
"""

from __future__ import annotations

import gc
import threading
import time

import pytest

from repro import (
    Budget,
    CancelToken,
    EngineConfig,
    KnowledgeBase,
    alternating_fixpoint,
    solve,
    well_founded_model,
)
from repro.core.context import build_context
from repro.datalog import parse_program
from repro.datalog.joins import RelationStore
from repro.exceptions import (
    BudgetError,
    BudgetExceeded,
    Cancelled,
    EvaluationError,
    GroundingError,
    GroundingTimeout,
    ReproError,
)
from repro.games import win_move_program
from repro.kernel import kernel_model
from repro.obs import TraceRecorder
from repro.resilience import metered
from repro.workloads.generators import layered_program, transitive_closure_program

WIN_MOVE = """
move(a, b). move(b, a). move(b, c).
wins(X) :- move(X, Y), not wins(Y).
"""


# --------------------------------------------------------------------- #
# Budget / CancelToken value semantics
# --------------------------------------------------------------------- #
class TestBudgetValue:
    def test_validation(self):
        with pytest.raises(ValueError):
            Budget(max_seconds=0)
        with pytest.raises(ValueError):
            Budget(max_seconds=-1.0)
        with pytest.raises(ValueError):
            Budget(max_steps=0)
        with pytest.raises(ValueError):
            Budget(max_steps=2.5)
        with pytest.raises(ValueError):
            Budget(token=object())

    def test_bounded(self):
        assert not Budget().bounded
        assert Budget(max_seconds=1.0).bounded
        assert Budget(max_steps=5).bounded
        assert Budget(token=CancelToken()).bounded

    def test_describe(self):
        assert Budget().describe() == "budget(unbounded)"
        text = Budget(max_seconds=2.5, max_steps=7, token=CancelToken()).describe()
        assert "max_seconds=2.5" in text
        assert "max_steps=7" in text
        assert "token=set" in text

    def test_engine_config_validates_budget(self):
        with pytest.raises(EvaluationError):
            EngineConfig(budget="not a budget")

    def test_engine_config_describe_includes_budget(self):
        config = EngineConfig(budget=Budget(max_steps=3))
        assert "max_steps=3" in config.describe()["budget"]
        assert EngineConfig().describe()["budget"] is None

    def test_token_reset(self):
        token = CancelToken()
        assert not token.cancelled
        token.cancel()
        assert token.cancelled
        token.reset()
        assert not token.cancelled


# --------------------------------------------------------------------- #
# Exception hierarchy: old and new except clauses see the same aborts
# --------------------------------------------------------------------- #
class TestHierarchy:
    def test_grounding_timeout_is_budget_exceeded(self):
        error = GroundingTimeout("too slow", elapsed=1.5)
        assert isinstance(error, BudgetExceeded)
        assert isinstance(error, GroundingError)
        assert isinstance(error, BudgetError)
        assert isinstance(error, ReproError)
        assert error.phase == "ground"
        assert error.elapsed == 1.5

    def test_cancelled_is_budget_error_not_exceeded(self):
        error = Cancelled("stop", phase="evaluate")
        assert isinstance(error, BudgetError)
        assert not isinstance(error, BudgetExceeded)

    def test_carries_diagnostics(self):
        error = BudgetExceeded("over", phase="component", elapsed=0.25, steps=12)
        assert (error.phase, error.elapsed, error.steps) == ("component", 0.25, 12)


# --------------------------------------------------------------------- #
# Per-phase aborts
# --------------------------------------------------------------------- #
class TestPhaseAborts:
    def test_ground_phase_raises_grounding_timeout(self):
        # A non-ground program so the deadline trips while the relevant
        # instantiation is still streaming — the legacy GroundingTimeout.
        edges = [(i, (i + 1) % 60) for i in range(60)]
        program = transitive_closure_program(edges)
        config = EngineConfig(budget=Budget(max_seconds=1e-9))
        with pytest.raises(GroundingTimeout) as excinfo:
            solve(program, config=config)
        assert excinfo.value.phase == "ground"

    def test_alternating_phase_step_budget(self, win_move_4b):
        config = EngineConfig(engine="monolithic", budget=Budget(max_steps=1))
        with pytest.raises(BudgetExceeded) as excinfo:
            alternating_fixpoint(win_move_4b, config=config)
        assert excinfo.value.phase == "alternating"
        assert excinfo.value.steps == 2

    def test_unfounded_phase_step_budget(self, win_move_4b):
        config = EngineConfig(engine="monolithic", budget=Budget(max_steps=1))
        with pytest.raises(BudgetExceeded) as excinfo:
            well_founded_model(win_move_4b, config=config)
        assert excinfo.value.phase in ("unfounded", "alternating")

    def test_component_phase_step_budget(self):
        # A 200-atom Horn chain is 200 components: the kernel counts one
        # step per 128 of them, and no alternation steps.
        chain = "a0. " + " ".join(f"a{i + 1} :- a{i}." for i in range(199))
        config = EngineConfig(budget=Budget(max_steps=1))
        with pytest.raises(BudgetExceeded) as excinfo:
            alternating_fixpoint(parse_program(chain), config=config)
        assert excinfo.value.phase == "component"
        assert excinfo.value.steps == 2

    def test_refresh_phase_step_budget(self):
        # Ground definite rules + the default engine → the incremental path,
        # whose per-component units are metered as "refresh" steps; the
        # singleton components themselves add no alternation steps, so the
        # step that crosses the limit is a refresh unit.
        kb = KnowledgeBase(
            "b :- a.  c :- b.",
            config=EngineConfig(semantics="well-founded", budget=Budget(max_steps=2)),
        )
        kb.assert_fact("a")
        assert kb.is_incremental
        with pytest.raises(BudgetExceeded) as excinfo:
            list(kb.query("c"))
        assert excinfo.value.phase == "refresh"
        assert excinfo.value.steps == 3

    def test_refresh_step_budget_global_across_phases(self):
        # The step budget is one global allowance: refresh units and the
        # alternation stages of a negative-loop component draw on the same
        # counter, and the abort reports whichever phase crossed it.
        kb = KnowledgeBase(
            "p :- not q.  q :- not p.  r :- p.",
            config=EngineConfig(budget=Budget(max_steps=1)),
        )
        assert kb.is_incremental
        with pytest.raises(BudgetExceeded) as excinfo:
            list(kb.query("p"))
        assert excinfo.value.phase in ("refresh", "alternating", "unfounded")

    def test_full_resolve_refresh_is_governed(self):
        # Non-ground rules fall back to a full re-solve per refresh; the
        # config budget must govern that path too.
        kb = KnowledgeBase(WIN_MOVE, config=EngineConfig(budget=Budget(max_steps=1)))
        kb.load({"move": [("a", "b"), ("b", "a"), ("b", "c")]})
        with pytest.raises(BudgetExceeded):
            list(kb.query("wins"))


# --------------------------------------------------------------------- #
# Deadline acceptance: aborts promptly, from whatever phase is running
# --------------------------------------------------------------------- #
class TestDeadline:
    # The deadline is derived from a measured unbudgeted baseline so the
    # test scales with machine speed: on any host the budgeted run gets a
    # quarter of the time the full solve needs, which both guarantees the
    # deadline trips and keeps the abort-latency bound (the longest
    # checkpoint-free stretch) proportional to the deadline itself.

    def test_deadlined_solve_aborts_within_twice_the_deadline(self):
        program = layered_program(20, 600)
        start = time.monotonic()
        solve(program)
        baseline = time.monotonic() - start
        deadline = max(baseline / 4, 0.05)
        config = EngineConfig(budget=Budget(max_seconds=deadline))
        # A full collection of the rest of the suite's objects takes about
        # as long as the deadline; collecting first keeps it out of the
        # abort latency being measured.
        gc.collect()
        start = time.monotonic()
        with pytest.raises(BudgetExceeded) as excinfo:
            solve(program, config=config)
        elapsed = time.monotonic() - start
        assert elapsed < 2 * deadline
        assert excinfo.value.phase is not None

    def test_deadlined_refresh_aborts_within_twice_the_deadline(self):
        program = layered_program(20, 600)
        warm = KnowledgeBase(program)
        start = time.monotonic()
        warm.solution
        baseline = time.monotonic() - start
        deadline = max(baseline / 4, 0.05)
        kb = KnowledgeBase(
            program, config=EngineConfig(budget=Budget(max_seconds=deadline))
        )
        gc.collect()  # as in the one-shot test above
        start = time.monotonic()
        with pytest.raises(BudgetExceeded):
            kb.solution  # forces the refresh
        assert time.monotonic() - start < 2 * deadline

    def test_deadline_trips_inside_one_long_join(self):
        # Round 1 of this definite program's envelope enumerates all N²
        # bindings in one variant (e(X) is the delta; the other variant's
        # older window is empty), so only the per-binding ticks inside the
        # join can stop it in time.  N = 200 takes 0.2-0.5 s unbudgeted.
        facts = " ".join(f"e(c{i})." for i in range(200))
        program = parse_program(facts + " p(X, Y) :- e(X), e(Y).")
        start = time.monotonic()
        solve(program)
        baseline = time.monotonic() - start
        deadline = max(baseline / 4, 0.05)
        config = EngineConfig(budget=Budget(max_seconds=deadline))
        gc.collect()  # as in the one-shot test above
        start = time.monotonic()
        with pytest.raises(BudgetExceeded) as excinfo:
            solve(program, config=config)
        elapsed = time.monotonic() - start
        assert elapsed < 2 * deadline, (elapsed, deadline)
        assert excinfo.value.phase == "ground"

    def test_cancel_trips_while_a_rounds_heads_are_appended(self, monkeypatch):
        # Round 1 appends the 200 facts to the grounder's overlay and joins
        # 40,000 heads; round 2 appends those heads before any rule runs.
        # The token is cancelled on round 2's 1,000th append: the appends'
        # own ticks must stop the run within one tick stride (64), not
        # after all 40,000.
        facts = " ".join(f"e(c{i})." for i in range(200))
        program = parse_program(facts + " p(X, Y) :- e(X), e(Y).")
        token = CancelToken()
        appended = []
        add_atom = RelationStore.add_atom

        def counting_add_atom(store, atom):
            appended.append(atom)
            if len(appended) == 200 + 1000:
                token.cancel()
            return add_atom(store, atom)

        monkeypatch.setattr(RelationStore, "add_atom", counting_add_atom)
        with pytest.raises(Cancelled) as excinfo:
            solve(program, config=EngineConfig(budget=Budget(token=token)))
        assert excinfo.value.phase == "ground"
        assert len(appended) - (200 + 1000) < 64

    def test_generous_deadline_does_not_trip(self, win_move_4b):
        config = EngineConfig(budget=Budget(max_seconds=60.0, max_steps=1_000_000))
        solution = solve(win_move_4b, config=config)
        baseline = solve(win_move_4b)
        assert solution.interpretation == baseline.interpretation


# --------------------------------------------------------------------- #
# One large component: the budget is consulted between its stages
# --------------------------------------------------------------------- #
def _single_component_game(rungs: int = 800):
    """A win–move game whose ``wins`` atoms form one alternating
    component: moves ``a_i → a_{i+1}``, ``a_i → t``, ``t → s``,
    ``t → a_0`` and ``a_rungs → s``.  With 800 rungs the kernel runs
    2,407 stages inside it, after 1,605 one-atom components."""
    edges = [(f"a{i}", f"a{i + 1}") for i in range(rungs)]
    edges += [(f"a{i}", "t") for i in range(rungs + 1)]
    edges += [("t", "s"), ("t", "a0"), (f"a{rungs}", "s")]
    return win_move_program(edges)


@pytest.fixture(scope="module")
def single_component_game():
    return _single_component_game()


class TestSingleComponentBudget:
    def test_step_cap_trips_inside_the_component(self, single_component_game):
        # 13 strided component steps, then one step per alternating stage.
        config = EngineConfig(budget=Budget(max_steps=50))
        with pytest.raises(BudgetExceeded) as excinfo:
            solve(single_component_game, config=config)
        assert excinfo.value.phase == "alternating"
        assert excinfo.value.steps == 51

    def test_deadline_trips_inside_the_component(self, single_component_game):
        # Compile once (the IR is cached on the context), then give the
        # evaluation a quarter of its unbudgeted time.  Collecting first
        # keeps a full collection of the rest of the suite's garbage out
        # of the abort latency being measured.
        context = build_context(single_component_game)
        kernel_model(context)
        start = time.monotonic()
        kernel_model(context)
        baseline = time.monotonic() - start
        deadline = max(baseline / 4, 0.05)
        config = EngineConfig(budget=Budget(max_seconds=deadline))
        gc.collect()
        start = time.monotonic()
        with pytest.raises(BudgetExceeded) as excinfo:
            alternating_fixpoint(context, config=config)
        elapsed = time.monotonic() - start
        assert elapsed < 2 * deadline, (elapsed, deadline)
        assert excinfo.value.phase == "alternating"


# --------------------------------------------------------------------- #
# Cooperative cancellation
# --------------------------------------------------------------------- #
class TestCancellation:
    def test_pre_cancelled_token_aborts_immediately(self, win_move_4b):
        token = CancelToken()
        token.cancel()
        config = EngineConfig(budget=Budget(token=token))
        with pytest.raises(Cancelled) as excinfo:
            solve(win_move_4b, config=config)
        assert excinfo.value.phase is not None

    def test_cross_thread_cancel(self):
        program = layered_program(12, 200)
        token = CancelToken()
        config = EngineConfig(budget=Budget(token=token))
        outcome = {}

        def run():
            try:
                solve(program, config=config)
                outcome["result"] = "completed"
            except Cancelled:
                outcome["result"] = "cancelled"

        worker = threading.Thread(target=run)
        timer = threading.Timer(0.05, token.cancel)
        timer.start()
        worker.start()
        worker.join(timeout=30)
        timer.cancel()
        assert not worker.is_alive()
        # A fast machine may legitimately finish before the timer fires;
        # either way the worker must terminate cleanly, and when the
        # cancel lands mid-run the abort is a Cancelled.
        assert outcome["result"] in ("cancelled", "completed")

    def test_nested_budget_keeps_the_enclosing_one(self, win_move_4b):
        # A solve under its own generous budget, inside an operation whose
        # token is already cancelled, still aborts: the nested meter is
        # chained to the enclosing one.
        token = CancelToken()
        token.cancel()
        config = EngineConfig(budget=Budget(max_seconds=30))
        with metered(Budget(token=token)):
            with pytest.raises(Cancelled):
                solve(win_move_4b, config=config)

    def test_reset_token_allows_reuse(self, win_move_4b):
        token = CancelToken()
        config = EngineConfig(budget=Budget(token=token))
        kb = KnowledgeBase(WIN_MOVE, config=config)
        kb.load({"move": [("a", "b"), ("b", "a"), ("b", "c")]})
        token.cancel()
        with pytest.raises(Cancelled):
            list(kb.query("wins"))
        token.reset()
        # Same session, same config object: the next read re-solves.
        assert sorted(kb.query("wins")) == [("b",)]


# --------------------------------------------------------------------- #
# Crash-consistent sessions: a tripped budget never wedges the KB
# --------------------------------------------------------------------- #
class TestSessionRecovery:
    def test_kb_recovers_after_budget_abort(self):
        kb = KnowledgeBase(WIN_MOVE, config=EngineConfig(budget=Budget(max_steps=1)))
        kb.load({"move": [("a", "b"), ("b", "a"), ("b", "c")]})
        with pytest.raises(BudgetExceeded):
            list(kb.query("wins"))
        # Recovery: widen the budget on the same session state.
        kb2 = KnowledgeBase(WIN_MOVE)
        kb2.load({"move": [("a", "b"), ("b", "a"), ("b", "c")]})
        assert sorted(kb2.query("wins")) == [("b",)]

    def test_incremental_engine_recovers_after_abort(self):
        token = CancelToken()
        kb = KnowledgeBase(
            "p :- not q.  q :- not p.  r :- p.",
            config=EngineConfig(budget=Budget(token=token)),
        )
        assert list(kb.query("r")) == []  # first (ungoverned-trip) solve is fine
        kb.assert_fact("q")
        token.cancel()
        with pytest.raises(Cancelled):
            kb.ask("q")
        token.reset()
        # The aborted refresh left the delta queued; the retry serves the
        # post-update model.
        assert kb.is_true("q")
        assert not kb.is_true("p")


# --------------------------------------------------------------------- #
# Observability: metered runs report their consumption
# --------------------------------------------------------------------- #
class TestBudgetTelemetry:
    def test_solve_emits_budget_counters(self, win_move_4b):
        recorder = TraceRecorder()
        config = EngineConfig(budget=Budget(max_steps=1_000_000))
        solve(win_move_4b, config=config, recorder=recorder)
        totals = recorder.counter_totals()
        assert totals.get("budget.steps", 0) > 0
        assert "budget.elapsed_ms" in totals

    def test_unbudgeted_solve_emits_no_budget_counters(self, win_move_4b):
        recorder = TraceRecorder()
        solve(win_move_4b, recorder=recorder)
        assert "budget.steps" not in recorder.counter_totals()
