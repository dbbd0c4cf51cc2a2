"""Unit tests for component-level incremental maintenance."""

import pytest

from repro.config import EngineConfig
from repro.datalog import parse_program
from repro.engine.solver import solve_configured
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
    return solve_configured(kb._program(), WFS)


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

    def test_modular_result_view(self):
        engine = IncrementalEngine(parse_program("p :- not q. r :- p."))
        engine.refresh(frozenset(), None)
        result = engine.modular_result()
        assert result.component_count == engine.component_count
        assert result.model == engine.model
        assert "components" in result.statistics()

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
