"""Unit tests for atom-level delta maintenance (repro.delta).

The maintainer is exercised the way its one real caller drives it —
through :class:`~repro.session.IncrementalEngine` — plus direct
:func:`classify_component` checks on the method dispatch.  Every
maintained model is compared against a from-scratch solve of the same
program.
"""

import pytest

from repro.config import EngineConfig
from repro.datalog import parse_program
from repro.datalog.atoms import Atom
from repro.datalog.rules import Program
from repro.delta import classify_component
from repro.engine.solver import solve_configured
from repro.session import IncrementalEngine, KnowledgeBase

WFS = EngineConfig(semantics="well-founded")


class _Harness:
    """One engine plus the mutable fact set and the rules to re-solve."""

    def __init__(self, text: str):
        program = parse_program(text)
        self.rules = Program(rule for rule in program if not rule.is_fact)
        self.facts = {rule.head for rule in program.facts()}
        self.engine = IncrementalEngine(self.rules)
        self.engine.refresh(frozenset(self.facts), None)

    def refresh(self, atom_name: str, *, add: bool):
        atom = Atom(atom_name, ())
        (self.facts.add if add else self.facts.discard)(atom)
        return self.engine.refresh(frozenset(self.facts), {atom})

    def check(self):
        text = "\n".join(f"{atom}." for atom in sorted(self.facts, key=str))
        program = Program(list(self.rules) + list(parse_program(text)))
        scratch = solve_configured(program, WFS).interpretation
        assert self.engine.model == scratch, "maintained model diverged"


class TestClassify:
    def _methods(self, text):
        harness = _Harness(text)
        context = harness.engine._rule_context
        return {
            frozenset(str(atom) for atom in component): classify_component(
                component, context.rules, context.rules_by_head
            )
            for component in harness.engine._components
        }

    def test_stratified_singletons_use_counting(self):
        methods = self._methods("a. b :- a, not c. d :- b.")
        assert methods[frozenset({"b"})] == "counting"
        assert methods[frozenset({"d"})] == "counting"

    def test_positive_recursion_uses_dred(self):
        methods = self._methods("p :- q. q :- p. q :- seed. seed.")
        assert methods[frozenset({"p", "q"})] == "dred"

    def test_positive_self_loop_uses_dred(self):
        # A singleton that feeds itself positively still needs
        # overdelete/rederive: a counter would count its own support.
        methods = self._methods("p :- p. p :- seed. seed.")
        assert methods[frozenset({"p"})] == "dred"

    def test_negation_through_recursion_falls_back_to_resolve(self):
        methods = self._methods("p :- not q. q :- not p.")
        assert methods[frozenset({"p", "q"})] == "resolve"


class TestCountingMaintenance:
    TEXT = "a. b :- a, not c. e :- b, not d. f :- e."

    def test_toggle_matches_scratch(self):
        harness = _Harness(self.TEXT)
        for name, add in [("c", True), ("d", True), ("c", False), ("a", False)]:
            stats = harness.refresh(name, add=add)
            assert stats.mode == "delta"
            assert set(stats.methods) <= {"counting"}
            harness.check()

    def test_redundant_support_is_cheap(self):
        # b already holds through a; a second support must not recompute
        # anything downstream — the verdict never moves.
        harness = _Harness("a. b :- a. b :- extra. g :- b.")
        stats = harness.refresh("extra", add=True)
        assert stats.mode == "delta"
        assert stats.components_recomputed <= 2  # extra itself + b's counters
        harness.check()


class TestDredMaintenance:
    # Mutual recursion with an external seed and a redundant side door.
    TEXT = "seed. p :- seed. p :- q. q :- p. q :- door."

    def test_overdelete_rederive_cycle(self):
        harness = _Harness(self.TEXT)
        # Open the side door (redundant support), then cut the seed: the
        # cycle must survive through the door — and die once both are gone
        # (mutual support alone is not well-founded).
        harness.refresh("door", add=True)
        harness.check()
        stats = harness.refresh("seed", add=False)
        assert stats.mode == "delta"
        harness.check()
        assert Atom("p", ()) in harness.engine.model.true_atoms
        harness.refresh("door", add=False)
        harness.check()
        assert Atom("p", ()) not in harness.engine.model.true_atoms

    def test_dred_method_surfaces_in_stats(self):
        harness = _Harness(self.TEXT)
        stats = harness.refresh("seed", add=False)
        assert "dred" in stats.methods
        assert "dred" in harness.engine.last_update.methods


class TestResolveFallback:
    TEXT = "p :- not q, gate. q :- not p."

    def test_negative_loop_component_is_re_solved(self):
        harness = _Harness(self.TEXT)
        stats = harness.refresh("gate", add=True)
        assert stats.mode == "delta"
        assert "resolve" in stats.methods
        harness.check()
        stats = harness.refresh("gate", add=False)
        assert "resolve" in stats.methods
        harness.check()


class TestSessionDefaults:
    def test_knowledge_base_defaults_to_delta(self):
        kb = KnowledgeBase("a. b :- a, not c.", config=WFS)
        kb.solution
        kb.assert_fact("c")
        assert kb.is_false("b")
        assert kb.last_update.mode == "delta"

    def test_engine_takes_no_maintenance_parameter(self):
        with pytest.raises(TypeError, match="maintenance"):
            IncrementalEngine(Program(), maintenance="component")
