"""Kernel engagement and fallback paths across the session layer.

The compiled kernel (:mod:`repro.kernel`) must engage exactly when it is
sound — a semantics that gives the well-founded model for the rules,
modular-style dispatch, rules that are ground or grounded incrementally —
and every other configuration must fall back to the object engines with
identical models.  These tests pin each gate.
"""

import pytest

from repro.config import EngineConfig
from repro.core.context import build_context
from repro.datalog import parse_atom, parse_program
from repro.engine.solver import solve
from repro.kernel import ComponentKernel, get_kernel
from repro.session import KnowledgeBase
from repro.session.incremental import IncrementalEngine

GAME_TEXT = """
move(a, b). move(b, a). move(b, c). move(c, d).
wins(X) :- move(X, Y), not wins(Y).
"""

GROUND_TEXT = """
r. s :- r. p :- not q. q :- not p. win :- s, not lose. lose :- not win.
"""


def _interpretation(kb: KnowledgeBase):
    return kb.solution.interpretation


class TestKernelEngagement:
    def test_ground_wfs_kernel_sessions_are_incremental(self):
        kb = KnowledgeBase(
            GROUND_TEXT,
            config=EngineConfig(semantics="well-founded", engine="kernel"),
        )
        assert kb.is_incremental
        kb.solution  # force the lazily-built engine
        assert kb._engine.engine == "kernel"

    def test_kernel_kb_matches_modular_kb_across_updates(self):
        config = lambda engine: EngineConfig(semantics="well-founded", engine=engine)
        kernel_kb = KnowledgeBase(GROUND_TEXT, config=config("kernel"))
        modular_kb = KnowledgeBase(GROUND_TEXT, config=config("modular"))
        assert _interpretation(kernel_kb) == _interpretation(modular_kb)
        for action, atom in [
            ("retract", "r"),
            ("assert", "q"),
            ("assert", "r"),
            ("retract", "q"),
        ]:
            for kb in (kernel_kb, modular_kb):
                if action == "assert":
                    kb.assert_fact(atom)
                else:
                    kb.retract_fact(atom)
            assert _interpretation(kernel_kb) == _interpretation(modular_kb), (
                action,
                atom,
            )
        # The kernel session really took the incremental path.
        assert kernel_kb.last_update.mode == "delta"


    def test_non_ground_rules_take_the_delta_path(self):
        kb = KnowledgeBase(
            GAME_TEXT,
            config=EngineConfig(semantics="well-founded", engine="kernel"),
        )
        assert kb.is_incremental
        kb.solution
        kb.assert_fact("move", "d", "e")
        kb.solution
        assert kb.last_update.mode == "delta"
        # The grown grounding was recompiled: the new rule instance runs on
        # the kernel, not on the object fallback.
        assert kb._engine._kernel.compiled.n_rules == len(kb._engine.context.rules)
        oracle = KnowledgeBase(
            GAME_TEXT, config=EngineConfig(semantics="well-founded", engine="monolithic")
        )
        oracle.assert_fact("move", "d", "e")
        assert _interpretation(kb) == _interpretation(oracle)


class TestFallbacks:
    def test_monolithic_engine_bypasses_kernel(self):
        kb = KnowledgeBase(
            GROUND_TEXT,
            config=EngineConfig(semantics="well-founded", engine="monolithic"),
        )
        assert not kb.is_incremental
        oracle = KnowledgeBase(
            GROUND_TEXT,
            config=EngineConfig(semantics="well-founded", engine="kernel"),
        )
        assert _interpretation(kb) == _interpretation(oracle)

    @pytest.mark.parametrize("semantics", ["stable", "stratified", "horn"])
    def test_non_wfs_semantics_bypass_kernel(self, semantics):
        # Horn requires a definite program; the others exercise negation.
        # On those programs the stratified and Horn models are the
        # well-founded one, so the kernel engine maintains them; the stable
        # semantics still rebuilds.
        text = "a. b :- a." if semantics == "horn" else "a. b :- a. c :- b, not d."
        kb = KnowledgeBase(
            text, config=EngineConfig(semantics=semantics, engine="kernel")
        )
        assert kb.is_incremental == (semantics != "stable")
        with_kernel = solve(text, config=EngineConfig(semantics=semantics, engine="kernel"))
        plain = solve(text, config=EngineConfig(semantics=semantics, engine="modular"))
        assert with_kernel.interpretation == plain.interpretation
        assert kb.solution.interpretation.true_atoms == plain.interpretation.true_atoms
        if kb.is_incremental:
            assert kb._engine.engine == "kernel"

    def test_solve_component_unknown_atom_returns_none(self):
        context = build_context(parse_program("p :- not q."))
        kernel = ComponentKernel(get_kernel(context))
        kernel.reset()
        assert kernel.solve_component({parse_atom("stranger")}) is None
        # Known atoms still resolve.
        assert kernel.solve_component({parse_atom("p")}) is not None

    def test_object_path_covers_a_declining_kernel(self, monkeypatch):
        """When the kernel declines a component (returns None), the object
        path must transparently produce the same model."""
        rules = parse_program("p :- not q. q :- r. win :- not lose. lose :- not win.")
        engine = IncrementalEngine(rules, engine="kernel")
        monkeypatch.setattr(
            ComponentKernel, "solve_component", lambda self, c, tracing=False: None
        )
        engine.refresh(frozenset({parse_atom("r")}), None)
        fallback_model = engine.model
        monkeypatch.undo()
        oracle = IncrementalEngine(rules, engine="modular")
        oracle.refresh(frozenset({parse_atom("r")}), None)
        assert fallback_model == oracle.model
        assert fallback_model.is_true(parse_atom("q"))
        assert fallback_model.is_false(parse_atom("p"))
