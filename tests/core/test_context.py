"""Unit tests for ground evaluation contexts."""

import dataclasses

import pytest

from repro.core.context import GroundContext, build_context
from repro.datalog.atoms import atom
from repro.datalog.grounding import relevant_ground
from repro.datalog.parser import parse_program
from repro.exceptions import GroundingError


class TestBuildContext:
    def test_splits_facts_and_rules(self):
        context = build_context(parse_program("a. p :- a, not q."))
        assert context.facts == frozenset({atom("a")})
        assert len(context.rules) == 1
        assert context.rules[0].head == atom("p")
        assert context.rules[0].positive_body == (atom("a"),)
        assert context.rules[0].negative_body == (atom("q"),)

    def test_base_contains_occurring_atoms(self):
        context = build_context(parse_program("a. p :- a, not q."))
        assert context.base == frozenset({atom("a"), atom("p"), atom("q")})

    def test_extra_atoms_widen_base(self):
        context = build_context(parse_program("p :- not q."), extra_atoms=[atom("r")])
        assert atom("r") in context.base

    def test_full_base_covers_all_idb_instantiations(self):
        program = parse_program("e(1, 2). t(X, Y) :- e(X, Y), not s(Y, X). s(2, 1).")
        small = build_context(program)
        wide = build_context(program, full_base=True)
        assert small.base <= wide.base
        assert atom("t", 2, 1) in wide.base  # never occurs in the ground program

    def test_indexes_are_consistent(self):
        context = build_context(parse_program("a. b. p :- a, b. q :- a, not p. p :- q."))
        for atom_, indices in context.rules_by_head.items():
            for index in indices:
                assert context.rules[index].head == atom_
        assert context.rules_by_head[atom("p")] == (0, 2)

    def test_context_holds_only_the_head_index(self):
        # The watch lists belong to repro.evaluation.indexes, not the context.
        names = [field.name for field in dataclasses.fields(GroundContext)]
        assert names == ["program", "rules", "facts", "base", "rules_by_head"]
        context = build_context(parse_program("p :- q, q."))
        assert context.rules[0].positive_body == (atom("q"), atom("q"))
        assert context.rules_by_head == {atom("p"): (0,)}

    def test_statistics_and_counts(self):
        context = build_context(parse_program("a. p :- a. q :- not p."))
        stats = context.statistics()
        assert stats == {"ground_rules": 2, "facts": 1, "atoms": 3}
        assert context.atom_count == 3
        assert context.rule_count == 3

    def test_atoms_of_predicate(self):
        context = build_context(parse_program("e(1, 2). p(X) :- e(X, Y), not p(Y)."))
        assert context.atoms_of_predicate("p") == {atom("p", 1), atom("p", 2)}


class TestGrounderDispatch:
    TC = "edge(1, 2). edge(2, 3). tc(X, Y) :- edge(X, Y). tc(X, Y) :- edge(X, Z), tc(Z, Y)."

    def test_relevant_and_scan_contexts_agree(self):
        program = parse_program(self.TC)
        streamed = build_context(program, grounder="relevant")
        scanned = build_context(relevant_ground(program, matcher="scan"))
        assert set(streamed.program.rules) == set(scanned.program.rules)
        assert streamed.facts == scanned.facts
        assert streamed.base == scanned.base
        assert {r.head for r in streamed.rules} == {r.head for r in scanned.rules}

    def test_streamed_program_is_materialised_on_the_context(self):
        context = build_context(parse_program(self.TC), grounder="relevant")
        assert context.program.is_ground
        assert len(context.program) == context.rule_count

    def test_naive_grounder_widens_the_base(self):
        program = parse_program("e(1). e(2). p(X) :- e(X), not q(X).")
        relevant = build_context(program, grounder="relevant")
        naive = build_context(program, grounder="naive")
        assert relevant.base <= naive.base

    def test_unknown_grounder_rejected(self):
        with pytest.raises(GroundingError, match="unknown grounder"):
            build_context(parse_program(self.TC), grounder="quantum")
