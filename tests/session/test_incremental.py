"""Unit tests for the incremental engine: which components an update
touches, forced full solves, recovery from a failed refresh, and
incremental grounding of non-ground rules."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.core.alternating as alternating
import repro.core.context as context
import repro.core.modular as modular
from repro.config import EngineConfig
from repro.core.alternating import alternating_fixpoint
from repro.datalog import parse_program
from repro.datalog.rules import Program
from repro.engine.solver import solve_configured
from repro.games import random_game_edges, win_move_program
from repro.session import IncrementalEngine, KnowledgeBase
from repro.workloads import layered_program

WFS = EngineConfig(semantics="well-founded")

CHAIN_TEXT = """
a.
b :- a.
c :- b, not d.
e :- not c.
f :- not f.
"""


def _scratch(kb):
    return solve_configured(Program.union(kb.store.as_program(), kb.rules), WFS)


class TestInvalidation:
    def test_initial_solve_reports_all_components(self):
        kb = KnowledgeBase(CHAIN_TEXT, config=WFS)
        kb.solution
        stats = kb.last_update
        assert stats.mode == "initial"
        assert stats.components_recomputed == stats.components_total
        assert stats.components_reused == 0

    def test_update_recomputes_only_downstream(self):
        kb = KnowledgeBase(CHAIN_TEXT, config=WFS)
        kb.solution
        total = kb.last_update.components_total
        # d is read only by c (and through it e); a, b, f are untouched.
        kb.assert_fact("d")
        stats = kb.last_update  # lazy: not refreshed yet
        kb.solution
        stats = kb.last_update
        assert stats.mode == "delta"
        assert 0 < stats.components_recomputed <= 3
        assert stats.components_reused == total - stats.components_recomputed
        assert kb.is_false("c")
        assert kb.is_true("e")
        assert kb.is_undefined("f")
        assert kb.solution.interpretation == _scratch(kb).interpretation

    def test_retract_of_program_fact(self):
        kb = KnowledgeBase(CHAIN_TEXT, config=WFS)
        assert kb.is_true("b")
        kb.retract_fact("a")
        assert kb.is_false("a")
        assert kb.is_false("b")
        assert kb.is_false("c")
        assert kb.is_true("e")
        assert kb.solution.interpretation == _scratch(kb).interpretation
        assert kb.solution.base == _scratch(kb).base

    def test_floating_fact_round_trip_shrinks_base(self):
        kb = KnowledgeBase(CHAIN_TEXT, config=WFS)
        base_before = kb.base
        kb.assert_fact("ghost(7)")
        assert kb.is_true("ghost", 7)
        assert kb.last_update.components_recomputed == 0
        kb.retract_fact("ghost(7)")
        # The atom occurs in no rule: retraction removes it from the base
        # entirely, exactly like a from-scratch solve of the program.
        assert kb.base == base_before
        assert kb.solution.base == _scratch(kb).base

    def test_assert_existing_rule_head_as_fact(self):
        kb = KnowledgeBase(CHAIN_TEXT, config=WFS)
        assert kb.is_false("d")
        kb.assert_fact("c")  # force c true regardless of d
        assert kb.is_true("c")
        assert kb.is_false("e")
        assert kb.solution.interpretation == _scratch(kb).interpretation

    def test_alternating_component_updates(self):
        kb = KnowledgeBase(layered_program(3, 6), config=WFS)
        assert kb.is_undefined("undef", 1, 0)
        kb.assert_fact("undef(1, 1)")
        assert kb.is_true("undef", 1, 1)
        assert kb.is_false("undef", 1, 0)
        assert kb.is_true("undef", 1, 2)
        assert kb.solution.interpretation == _scratch(kb).interpretation
        kb.retract_fact("undef(1, 1)")
        assert kb.is_undefined("undef", 1, 0)


class TestEngineDirect:
    def test_accepts_non_ground_rules(self):
        from repro.datalog import parse_atom

        engine = IncrementalEngine(parse_program("tc(X, Y) :- edge(X, Y)."))
        edge = parse_atom("edge(1, 2)")
        engine.refresh(frozenset({edge}), None)
        assert engine.model.is_true(parse_atom("tc(1, 2)"))
        stats = engine.refresh(frozenset(), {edge})
        assert stats.mode == "delta"
        # The instance stays grounded; its head is false, not forgotten.
        assert engine.model.is_false(parse_atom("tc(1, 2)"))
        assert parse_atom("tc(1, 2)") in engine.base

    def test_refresh_none_forces_full_solve(self):
        rules = parse_program("p :- not q.")
        engine = IncrementalEngine(rules)
        stats = engine.refresh(frozenset(), None)
        assert stats.mode == "initial"
        assert engine.model.is_true(next(iter(engine.base & {a for a in engine.base if a.predicate == "p"})))

    def test_statistics_read_off_the_engine(self):
        from repro.datalog import parse_atom

        engine = IncrementalEngine(parse_program("p :- not q. q :- not p. r :- p. s :- r."))
        facts = frozenset({parse_atom("r"), parse_atom("f")})
        engine.refresh(facts, None)
        assert engine.statistics() == {
            "components": engine.component_count,
            "largest_component": 2,
            "ground_rules": len(engine.rule_context.rules),
            "atoms": len(engine.base),
        }
        engine.refresh(frozenset({parse_atom("r")}), {parse_atom("f")})
        assert engine.statistics()["atoms"] == len(engine.base) == 4

    def test_failed_delta_falls_back_to_full_resolve(self, monkeypatch):
        from repro.datalog import parse_atom
        from repro.delta import DeltaMaintainer

        engine = IncrementalEngine(parse_program("p :- not q. r :- p."))
        engine.refresh(frozenset(), None)
        baseline = engine.model

        # A failure mid-delta would leave the maintained counters and
        # aggregates torn; the engine must drop to unsolved, discard the
        # maintainer, and rebuild in full on the next refresh.
        def boom(*args, **kwargs):
            raise RuntimeError("maintenance pass died")

        monkeypatch.setattr(DeltaMaintainer, "apply", boom)
        q = frozenset({parse_atom("q")})
        with pytest.raises(RuntimeError):
            engine.refresh(q, {parse_atom("q")})
        monkeypatch.undo()

        stats = engine.refresh(q, {parse_atom("q")})
        assert stats.mode == "initial"  # full rebuild, not a torn delta
        assert engine.model.is_true(parse_atom("q"))
        assert engine.model.is_false(parse_atom("p"))
        assert baseline.is_true(parse_atom("p"))

    @pytest.mark.parametrize("parameter, value", [("engine", "kernel"), ("strategy", "naive")])
    def test_takes_no_solver_parameter(self, parameter, value):
        # Every engine setting maintains its model on the one path, with
        # the residual solvers the kernel uses: there is no per-component
        # solver and no S_P scheme to choose.
        with pytest.raises(TypeError, match=parameter):
            IncrementalEngine(Program(), **{parameter: value})

    def test_empty_rule_set_is_pure_fact_store(self):
        from repro.datalog import parse_atom

        engine = IncrementalEngine(parse_program(""))
        engine.refresh(frozenset({parse_atom("f(1)")}), None)
        assert engine.model.is_true(parse_atom("f(1)"))
        stats = engine.refresh(frozenset(), {parse_atom("f(1)")})
        assert stats.mode == "delta"
        assert stats.floating_changed == 1
        assert engine.base == frozenset()


JOIN_TEXT = """
wins(X) :- move(X, Y), not wins(Y).
two(X, Z) :- move(X, Y), move(Y, Z).
"""


def _verdicts(solution):
    model = solution.interpretation
    undefined = solution.base - model.true_atoms - model.false_atoms
    return sorted(map(str, model.true_atoms)), sorted(map(str, undefined))


class TestIncrementalGrounding:
    def _kb(self, **config):
        kb = KnowledgeBase(
            JOIN_TEXT,
            facts={"move": [("a", "b"), ("b", "c")]},
            config=EngineConfig(**config),
        )
        kb.solution
        return kb

    def test_budget_trip_inside_grounding_recovers(self, monkeypatch):
        from repro.datalog.grounding import IncrementalGrounder
        from repro.exceptions import Cancelled
        from repro.resilience import Budget, CancelToken

        token = CancelToken()
        kb = self._kb(budget=Budget(token=token))
        extend = IncrementalGrounder.extend

        def cancelled_midway(self, asserted):
            token.cancel()
            yield from extend(self, asserted)

        monkeypatch.setattr(IncrementalGrounder, "extend", cancelled_midway)
        kb.assert_fact("move", "c", "d")
        with pytest.raises(Cancelled):
            kb.solution
        monkeypatch.undo()
        token.reset()
        # The aborted grounding may have emitted instances the engine never
        # received; the recovery re-grounds instead of missing them.
        assert kb.is_true("two", "b", "d")
        assert kb.last_update.mode == "initial"
        assert _verdicts(kb.solution) == _verdicts(_scratch(kb))
        kb.assert_fact("move", "d", "e")
        assert kb.is_true("two", "c", "e")
        assert kb.last_update.mode == "delta"

    def test_rolled_back_batch_keeps_the_grounding(self):
        kb = self._kb()
        with pytest.raises(RuntimeError):
            with kb.batch():
                kb.assert_fact("move", "c", "d")
                assert kb.is_true("two", "b", "d")  # grounded inside the batch
                raise RuntimeError("abort the batch")
        assert kb.is_false("two", "b", "d")
        assert kb.last_update.mode == "delta"
        assert _verdicts(kb.solution) == _verdicts(_scratch(kb))
        # The instances outlived the rollback: re-asserting grounds nothing.
        kb.assert_fact("move", "c", "d")
        assert kb.is_true("two", "b", "d")
        assert kb.last_update.rules_added == 0

    def test_dominant_retractions_reground(self):
        edges = [(i, i + 1) for i in range(100)]
        kb = KnowledgeBase(JOIN_TEXT, facts={"move": edges})
        kb.solution
        with kb.batch():
            for edge in edges[20:]:
                kb.retract_fact("move", *edge)
        kb.solution
        # 80 retracted-but-grounded facts against 20 live ones: the engine
        # grounds afresh, so the base is exact again.
        assert kb.last_update.mode == "initial"
        scratch = _scratch(kb)
        assert kb.solution.base == scratch.base
        assert kb.solution.interpretation == scratch.interpretation


WIN_RULE = "wins(X) :- move(X, Y), not wins(Y)."


def _reference(edges):
    """True and undefined atoms of the monolithic alternating fixpoint."""
    result = alternating_fixpoint(win_move_program(sorted(edges)))
    return result.true_atoms(), result.model.undefined_atoms(result.context.base)


def _churn_plan(edges, steps, seed):
    """A seeded churn over the nodes of *edges*, each step toggling one
    move, with the reference for the moves after each step: a list of
    ``(asserted, edge, (true, undefined))``."""
    generator = random.Random(seed)
    nodes = sorted({node for edge in edges for node in edge})
    present = set(edges)
    plan = []
    for _ in range(steps):
        edge = (generator.choice(nodes), generator.choice(nodes))
        asserted = edge not in present
        present ^= {edge}
        plan.append((asserted, edge, _reference(present)))
    return plan


class TestNoReferenceEvaluator:
    """A session solves its components with the residual solvers it
    shares with the kernel: it never runs the monolithic alternating
    fixpoint or grounds a component-local program."""

    def test_session_runs_no_reference_evaluator(self, monkeypatch):
        edges = random_game_edges(24, 2, seed=1)
        # Every reference is computed before patching.
        initial = _reference(edges)
        plan = _churn_plan(edges, 80, seed=1)
        assert initial[1], "the game must have drawn positions"

        originals = (alternating.alternating_fixpoint, context.build_context)

        def forbidden(*args, **kwargs):
            raise AssertionError("a session ran a reference evaluator")

        for module in (alternating, context, modular):
            for name, value in list(vars(module).items()):
                if any(value is original for original in originals):
                    monkeypatch.setattr(module, name, forbidden)

        kb = KnowledgeBase(WIN_RULE, facts={"move": edges})
        view = kb.solution.view
        assert (view.true_atoms(), view.undefined_atoms()) == initial
        resolved = False
        for asserted, edge, expected in plan:
            if asserted:
                kb.assert_fact("move", *edge)
            else:
                kb.retract_fact("move", *edge)
            view = kb.solution.view
            assert kb.last_update.mode == "delta"
            assert (view.true_atoms(), view.undefined_atoms()) == expected
            if "resolve" in kb.last_update.methods:
                resolved = True
                break
        assert resolved, "the churn never re-solved a component"

    def test_session_does_not_import_the_kernel(self):
        script = (
            "import sys\n"
            "from repro import KnowledgeBase\n"
            f"kb = KnowledgeBase({WIN_RULE!r}, facts={{'move': "
            "[('a', 'b'), ('b', 'a'), ('b', 'c'), ('c', 'd')]})\n"
            "assert kb.is_undefined('wins', 'a') and kb.is_true('wins', 'c')\n"
            "kb.assert_fact('move', 'd', 'e')\n"
            "assert kb.is_true('wins', 'b')\n"
            "assert 'repro.kernel' not in sys.modules\n"
        )
        source = str(Path(repro.__file__).resolve().parents[1])
        completed = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=120,
            check=False,
            env={**os.environ, "PYTHONPATH": source},
        )
        assert completed.returncode == 0, completed.stderr
