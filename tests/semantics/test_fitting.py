"""Unit tests for the Fitting (Kripke–Kleene) semantics."""

from repro.config import EngineConfig
from repro.core.alternating import alternating_fixpoint
from repro.core.context import build_context
from repro.datalog.atoms import atom
from repro.datalog.parser import parse_program
from repro.engine.solver import solve
from repro.fixpoint.interpretations import PartialInterpretation, TruthValue
from repro.semantics.comparison import compare_semantics
from repro.semantics.fitting import fitting_model, fitting_transform
from repro.session import KnowledgeBase
from repro.workloads import complement_of_transitive_closure_program, random_propositional_program


class TestFittingTransform:
    def test_atom_without_rules_becomes_false(self):
        context = build_context(parse_program("p :- q."))
        result = fitting_transform(context, PartialInterpretation.empty())
        assert atom("q") in result.false_atoms

    def test_atom_with_true_body_becomes_true(self):
        context = build_context(parse_program("a. p :- a."))
        first = fitting_transform(context, PartialInterpretation.empty())
        second = fitting_transform(context, first)
        assert atom("p") in second.true_atoms

    def test_atom_needs_all_bodies_false_to_be_false(self):
        context = build_context(parse_program("p :- q. p :- r. r."))
        first = fitting_transform(context, PartialInterpretation.empty())
        assert atom("q") in first.false_atoms
        assert atom("p") not in first.false_atoms


class TestFittingModel:
    def test_negative_self_loop_stays_undefined(self):
        result = fitting_model(parse_program("p :- not p."))
        assert result.model.value_of_atom(atom("p")) is TruthValue.UNDEFINED

    def test_positive_loop_stays_undefined_unlike_wfs(self):
        # p :- q. q :- p.  Fitting leaves p, q undefined; the well-founded
        # semantics makes them false (unfounded set) — the separation the
        # paper attributes to Minker's transitive-closure objection.
        program = parse_program("p :- q. q :- p.")
        fitting = fitting_model(program)
        afp = alternating_fixpoint(program)
        assert fitting.model.value_of_atom(atom("p")) is TruthValue.UNDEFINED
        assert atom("p") in afp.false_atoms()

    def test_ntc_on_cyclic_graph_is_undefined_under_fitting(self):
        program = complement_of_transitive_closure_program([(1, 2), (2, 1), (3, 3)])
        fitting = fitting_model(program)
        afp = alternating_fixpoint(program)
        # (1, 3): not in the transitive closure.  WFS says ntc(1,3) true;
        # Fitting cannot decide it because tc(1,3)'s proof search never
        # finitely fails on the cyclic graph.
        assert afp.value_of(atom("ntc", 1, 3)) == "true"
        assert fitting.model.value_of_atom(atom("ntc", 1, 3)) is TruthValue.UNDEFINED

    def test_acyclic_case_agrees_with_wfs(self):
        # On an acyclic graph every proof search fails finitely, so Fitting
        # and the well-founded semantics give the same verdicts.  (Fitting is
        # computed over the full instantiation, so its base is larger; the
        # comparison is on the derivable atoms and on the WFS base.)
        program = complement_of_transitive_closure_program([(1, 2), (2, 3)])
        fitting = fitting_model(program)
        afp = alternating_fixpoint(program)
        assert fitting.model.true_atoms == afp.true_atoms()
        assert afp.false_atoms() <= fitting.model.false_atoms
        assert fitting.is_total

    def test_fitting_model_is_contained_in_wfs(self):
        for seed in range(8):
            program = random_propositional_program(atoms=7, rules=16, seed=seed)
            fitting = fitting_model(program)
            afp = alternating_fixpoint(program)
            assert fitting.model.true_atoms <= afp.true_atoms()
            assert fitting.model.false_atoms <= afp.false_atoms()

    def test_stages_are_information_increasing(self):
        result = fitting_model(parse_program("a. b :- a. c :- not b."))
        for smaller, larger in zip(result.stages, result.stages[1:]):
            assert larger.extends(smaller)

    def test_total_on_simple_program(self):
        result = fitting_model(parse_program("a. b :- not a. c :- not b."))
        assert result.is_total
        assert result.model.true_atoms == frozenset({atom("a"), atom("c")})


class TestFittingThroughTheEntryPoints:
    """Every entry point grounds naively under Fitting: the relevant
    grounder drops ``p(a)``'s only rule (its positive body is never
    derivable), which makes ``p(a)`` false and ``r`` true — the
    unfounded-set step the Fitting semantics does not take."""

    TEXT = "q(a). p(X) :- q(X), p(X). r :- not p(a)."

    def _check(self, value_of):
        assert value_of(atom("q", "a")) is TruthValue.TRUE
        assert value_of(atom("p", "a")) is TruthValue.UNDEFINED
        assert value_of(atom("r")) is TruthValue.UNDEFINED

    def test_solve(self):
        self._check(solve(self.TEXT, config=EngineConfig(semantics="fitting")).value_of)

    def test_knowledge_base(self):
        kb = KnowledgeBase(self.TEXT, config=EngineConfig(semantics="fitting"))
        self._check(kb.value_of)
        kb.assert_fact("q(b)")
        self._check(kb.value_of)
        assert kb.value_of(atom("p", "b")) is TruthValue.UNDEFINED

    def test_compare_semantics(self):
        comparison = compare_semantics(parse_program(self.TEXT), enumerate_stable=False)
        self._check(comparison.fitting.value_of_atom)
        # The well-founded model does take the unfounded-set step.
        assert comparison.well_founded.value_of_atom(atom("r")) is TruthValue.TRUE
