"""Unit tests for the hash-join relations and the compiled join plans
behind the indexed grounder."""

import pytest

from repro.datalog import grounding
from repro.datalog.atoms import atom
from repro.datalog.grounding import IncrementalGrounder, relevant_ground
from repro.datalog.joins import Relation, RelationStore, compile_rule, join
from repro.datalog.parser import parse_program, parse_rule
from repro.datalog.terms import Compound, Constant
from repro.exceptions import SafetyError
from repro.storage import MemoryStore


def ground(predicate, *values):
    return atom(predicate, *(Constant(v) for v in values))


class TestRelation:
    def test_add_deduplicates(self):
        relation = Relation("e", 2)
        assert relation.add((Constant(1), Constant(2))) is True
        assert relation.add((Constant(1), Constant(2))) is False
        assert len(relation) == 1

    def test_lazy_index_built_once_and_maintained(self):
        relation = Relation("e", 2)
        relation.add((Constant(1), Constant(2)))
        index = relation.ensure_index((0,))
        assert index == {(Constant(1),): [0]}
        # Rows added after the index exists are appended incrementally.
        relation.add((Constant(1), Constant(3)))
        relation.add((Constant(2), Constant(3)))
        assert relation.indexes[(0,)][(Constant(1),)] == [0, 1]
        assert relation.indexes[(0,)][(Constant(2),)] == [2]

    def test_candidates_respect_windows(self):
        relation = Relation("e", 2)
        for pair in [(1, 2), (1, 3), (1, 4)]:
            relation.add((Constant(pair[0]), Constant(pair[1])))
        key = (Constant(1),)
        assert list(relation.candidates((0,), key, 0, 3)) == [0, 1, 2]
        assert list(relation.candidates((0,), key, 1, 3)) == [1, 2]
        assert list(relation.candidates((0,), key, 0, 1)) == [0]
        assert list(relation.candidates((0,), key, 2, 2)) == []

    def test_candidates_fully_bound_is_membership(self):
        relation = Relation("e", 2)
        relation.add((Constant(1), Constant(2)))
        row = (Constant(1), Constant(2))
        assert list(relation.candidates((0, 1), row, 0, 1)) == [0]
        assert list(relation.candidates((0, 1), row, 1, 1)) == []
        assert list(relation.candidates((0, 1), (Constant(9), Constant(9)), 0, 1)) == []
        # The membership fast path never builds an index.
        assert relation.indexes == {}

    def test_candidates_unbound_walks_window(self):
        relation = Relation("p", 1)
        relation.add((Constant("a"),))
        relation.add((Constant("b"),))
        assert list(relation.candidates((), (), 0, 2)) == [0, 1]
        assert list(relation.candidates((), (), 1, 2)) == [1]


class TestRelationStore:
    def test_keyed_on_predicate_and_arity(self):
        store = RelationStore()
        store.add_atom(ground("p", 1))
        store.add_atom(ground("p", 1, 2))
        assert len(store.relation("p", 1)) == 1
        assert len(store.relation("p", 2)) == 1
        assert store.relation("p", 3) is None
        assert ground("p", 1) in store
        assert ground("p", 3) not in store

    def test_sizes_snapshot(self):
        store = RelationStore()
        store.add_atom(ground("e", 1, 2))
        snapshot = store.sizes()
        store.add_atom(ground("e", 2, 3))
        assert snapshot == {("e", 2): 1}
        assert store.sizes() == {("e", 2): 2}


def rows_probe(rows, positions):
    """A probe over a plain row list: the rows whose projection onto
    *positions* equals the key."""
    return lambda key: [row for row in rows if tuple(row[p] for p in positions) == key]


def run_plan(rule_text, relations, delta=0):
    """The rule instances variant *delta* of the rule enumerates over
    *relations* (predicate -> rows)."""
    plan = compile_rule(parse_rule(rule_text))
    variant = plan.variants[delta]
    probes = [
        rows_probe(relations.get(step.signature[0], []), step.positions)
        for step in variant.steps
    ]
    slots = plan.slots()
    return [plan.instance(slots) for _ in join(variant.steps, probes, slots)]


def row(*values):
    return tuple(Constant(v) for v in values)


def orders(rule_text):
    """Each variant's conjunct indexes in join order."""
    plan = compile_rule(parse_rule(rule_text))
    return [tuple(step.conjunct for step in variant.steps) for variant in plan.variants]


class TestJoinOrder:
    def test_delta_first_then_most_bound_with_ties_to_the_leftmost(self):
        # After the sg delta binds P and Q, both parent conjuncts have one
        # bound position; the leftmost wins the tie.
        assert orders("sg(X, Y) :- parent(P, X), parent(Q, Y), sg(P, Q).") == [
            (0, 2, 1),
            (1, 2, 0),
            (2, 0, 1),
        ]

    def test_most_bound_conjunct_goes_next(self):
        assert orders("p(X) :- a(X, Y), b(Z), c(X, Y, W).") == [
            (0, 2, 1),  # c has two bound positions after a, b none
            (1, 0, 2),  # after b, a and c both have none: leftmost
            (2, 0, 1),  # a has two bound positions after c
        ]

    def test_rule_constants_count_as_bound(self):
        # From a's delta, b has no bound position and c one (its constant).
        assert orders("p(X) :- a(X), b(Y), c(Y, k).")[0] == (0, 2, 1)

    def test_order_is_fixed_at_compile_time(self, monkeypatch):
        # One compile per rule and grounder, shared by every later run.
        compiled = []

        def counting(rule):
            compiled.append(rule)
            return compile_rule(rule)

        monkeypatch.setattr(grounding, "compile_rule", counting)
        program = parse_program("e(1, 2). p(X, Y) :- e(X, Y). q(X) :- p(X, X).")
        grounder = IncrementalGrounder(program)
        list(grounder.ground())
        list(grounder.extend([atom("e", 3, 3)]))
        list(grounder.extend([atom("e", 4, 4)]))
        assert len(compiled) == 2

    def test_unsafe_rule_is_rejected(self):
        with pytest.raises(SafetyError):
            compile_rule(parse_rule("p(X, Y) :- q(X)."))


class TestJoinSteps:
    def test_repeated_variable_becomes_an_equality_check(self):
        plan = compile_rule(parse_rule("p(X) :- e(X, X)."))
        (step,) = plan.variants[0].steps
        assert step.positions == ()
        assert step.checks == ((0, 1),)
        assert len(step.binds) == 1 and step.binds[0][0] == 0
        found = run_plan("p(X) :- e(X, X).", {"e": [row(1, 2), row(2, 2), row(3, 1)]})
        assert [str(rule) for rule in found] == ["p(2) :- e(2, 2)."]

    def test_rule_constants_land_in_the_probe_key(self):
        plan = compile_rule(parse_rule("p(Y) :- e(2, Y)."))
        (step,) = plan.variants[0].steps
        assert step.positions == (0,)
        assert step.key(plan.slots()) == (Constant(2),)
        found = run_plan("p(Y) :- e(2, Y).", {"e": [row(1, 2), row(2, 2), row(2, 3)]})
        assert {str(rule.head) for rule in found} == {"p(2)", "p(3)"}

    def test_bound_variables_land_in_the_probe_key(self):
        plan = compile_rule(parse_rule("tc(X, Y) :- e(X, Z), tc(Z, Y)."))
        first, second = plan.variants[0].steps
        assert first.positions == () and second.positions == (0,)
        slots = plan.slots()
        for position, slot in first.binds:
            slots[slot] = row(1, 2)[position]
        assert second.key(slots) == (Constant(2),)

    def test_fully_bound_step_is_a_membership_probe_and_builds_no_index(self):
        text = "p(X, Y) :- e(X, Y), e(X, Y)."
        plan = compile_rule(parse_rule(text))
        for variant in plan.variants:
            assert [step.positions for step in variant.steps] == [(), (0, 1)]
        store = MemoryStore()
        store.load([atom("e", 1, 2), atom("e", 2, 3)])
        rules = relevant_ground(parse_program(text), store=store)
        assert len([rule for rule in rules if rule.body]) == 2
        assert store.index_count() == 0
        grounder = IncrementalGrounder(parse_program("e(1, 2). e(2, 3). " + text))
        list(grounder.ground())
        assert grounder._overlay.relation("e", 2).indexes == {}

    def test_duplicated_conjunct(self):
        program = parse_program("e(1, 2). e(2, 3). e(3, 3). p(X, Y) :- e(X, Y), e(X, Y).")
        indexed = set(relevant_ground(program))
        assert indexed == set(relevant_ground(program, matcher="scan"))
        instances = [rule for rule in IncrementalGrounder(program).ground() if rule.body]
        assert len(instances) == 3

    def test_two_way_join(self):
        found = run_plan(
            "tc(X, Y) :- e(X, Z), tc(Z, Y).",
            {"e": [row(1, 2), row(2, 3)], "tc": [row(2, 3), row(3, 3)]},
        )
        assert {str(rule) for rule in found} == {
            "tc(1, 3) :- e(1, 2), tc(2, 3).",
            "tc(2, 3) :- e(2, 3), tc(3, 3).",
        }

    def test_compound_arguments_are_matched_and_built(self):
        text = "r(X, g(Y)) :- e(f(X, Y)), e(f(Y, Y))."
        plan = compile_rule(parse_rule(text))
        first, second = plan.variants[0].steps
        assert first.positions == () and len(first.patterns) == 1
        # Once X and Y are bound, the second compound is built into the key.
        assert second.positions == (0,)
        found = run_plan(
            text,
            {"e": [(Compound("f", row("a", "b")),), (Compound("f", row("b", "b")),)]},
        )
        assert {str(rule.head) for rule in found} == {"r(a, g(b))", "r(b, g(b))"}
