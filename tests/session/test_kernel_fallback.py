"""Kernel-config sessions and the fallback paths around them.

``engine="kernel"`` (the default) selects the compiled one-shot evaluator
of :mod:`repro.kernel`.  A session configured with it takes the
incremental path — a semantics that gives the well-founded model for the
rules, rules that are ground or grounded incrementally — with its model
held once, in the engine's aggregate sets, and every other configuration
rebuilds with identical models.  These tests pin each gate.
"""

import pytest

from repro.config import EngineConfig
from repro.datalog.rules import Program
from repro.engine.solver import solve, solve_configured
from repro.session import KnowledgeBase

GAME_TEXT = """
move(a, b). move(b, a). move(b, c). move(c, d).
wins(X) :- move(X, Y), not wins(Y).
"""

GROUND_TEXT = """
r. s :- r. p :- not q. q :- not p. win :- s, not lose. lose :- not win.
"""


def _interpretation(kb: KnowledgeBase):
    return kb.solution.interpretation


def _scratch(kb: KnowledgeBase):
    """The monolithic from-scratch model of the session's current program."""
    program = Program.union(kb.store.as_program(), kb.rules)
    return solve_configured(program, kb.config.replace(engine="monolithic")).interpretation


class TestKernelEngagement:
    def test_ground_wfs_kernel_sessions_are_incremental(self):
        kb = KnowledgeBase(
            GROUND_TEXT,
            config=EngineConfig(semantics="well-founded", engine="kernel"),
        )
        assert kb.is_incremental
        kb.solution  # force the lazily-built engine
        # Solved component by component, not by a one-shot rebuild.
        assert kb.last_update.components_total > 0

    def test_kernel_kb_matches_scratch_across_updates(self):
        kb = KnowledgeBase(
            GROUND_TEXT, config=EngineConfig(semantics="well-founded", engine="kernel")
        )
        assert _interpretation(kb) == _scratch(kb)
        for action, atom in [
            ("retract", "r"),
            ("assert", "q"),
            ("assert", "r"),
            ("retract", "q"),
        ]:
            if action == "assert":
                kb.assert_fact(atom)
            else:
                kb.retract_fact(atom)
            assert _interpretation(kb) == _scratch(kb), (action, atom)
        # The kernel session really took the incremental path.
        assert kb.last_update.mode == "delta"

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
        oracle = KnowledgeBase(
            GAME_TEXT, config=EngineConfig(semantics="well-founded", engine="monolithic")
        )
        oracle.assert_fact("move", "d", "e")
        assert _interpretation(kb) == _interpretation(oracle)

    def test_fold_in_compiles_nothing(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a session compiled the kernel IR")

        monkeypatch.setattr("repro.kernel.compile.compile_context", refuse)
        kb = KnowledgeBase(
            GAME_TEXT,
            config=EngineConfig(semantics="well-founded", engine="kernel"),
        )
        kb.solution
        kb.assert_fact("move", "d", "e")
        kb.solution
        # The new rule instance was folded into the solved condensation.
        assert kb.last_update.mode == "delta"
        assert kb.last_update.rules_added == 1
        assert _interpretation(kb) == _scratch(kb)


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
        plain = solve(text, config=EngineConfig(semantics=semantics, engine="monolithic"))
        assert with_kernel.interpretation == plain.interpretation
        assert kb.solution.interpretation.true_atoms == plain.interpretation.true_atoms
