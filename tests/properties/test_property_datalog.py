"""Property-based tests for the Datalog substrate.

These cover the parser round-trip, unification laws, grounding equivalence,
and the semantics-level agreement between stratified evaluation and the
alternating fixpoint on randomly generated *stratified* programs.
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.core.alternating import alternating_fixpoint
from repro.core.context import build_context
from repro.core.wellfounded import well_founded_model
from repro.datalog.atoms import Atom, Literal
from repro.datalog.parser import parse_program
from repro.datalog.rules import Program, Rule
from repro.datalog.terms import Compound, Constant, Variable
from repro.datalog.unification import apply_substitution, unify_terms
from repro.semantics.stratified import stratified_model
from repro.workloads import complement_of_transitive_closure_program, well_founded_nodes_program

SETTINGS = settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


# --------------------------------------------------------------------- #
# Term / unification strategies
# --------------------------------------------------------------------- #
def constants():
    return st.sampled_from([Constant("a"), Constant("b"), Constant(1), Constant(2)])


def variables():
    return st.sampled_from([Variable("X"), Variable("Y"), Variable("Z")])


def terms(max_depth: int = 2):
    base = st.one_of(constants(), variables())
    if max_depth == 0:
        return base
    return st.one_of(
        base,
        st.tuples(
            st.sampled_from(["f", "g"]),
            st.lists(terms(max_depth - 1), min_size=1, max_size=2),
        ).map(lambda pair: Compound(pair[0], tuple(pair[1]))),
    )


class TestUnificationProperties:
    @SETTINGS
    @given(left=terms(), right=terms())
    def test_unifier_actually_unifies(self, left, right):
        unifier = unify_terms(left, right)
        if unifier is not None:
            assert apply_substitution(left, unifier) == apply_substitution(right, unifier)

    @SETTINGS
    @given(left=terms(), right=terms())
    def test_unification_is_symmetric_in_success(self, left, right):
        assert (unify_terms(left, right) is None) == (unify_terms(right, left) is None)

    @SETTINGS
    @given(term=terms())
    def test_unification_with_self_is_trivial(self, term):
        assert unify_terms(term, term) == {}


# --------------------------------------------------------------------- #
# Parser round-trip on random ground programs
# --------------------------------------------------------------------- #
def propositional_programs():
    atoms = st.sampled_from(["p", "q", "r", "s"]).map(lambda n: Atom(n, ()))
    literals = st.tuples(atoms, st.booleans()).map(lambda p: Literal(p[0], p[1]))
    rules = st.tuples(atoms, st.lists(literals, max_size=3)).map(
        lambda p: Rule(p[0], tuple(p[1]))
    )
    return st.lists(rules, min_size=1, max_size=10).map(Program)


#: Constants whose printed form needs quoting or a sign, next to bare ones.
PRINTABLE_CONSTANTS = [
    "a", "bob", "x_1", "not", "Alice", "_x", "12", "-3", "a b", "a, b",
    "f(a)", "it's", 'say "hi"', "", 0, 7, -3,
]


def first_order_terms(max_depth: int = 2):
    base = st.one_of(
        st.sampled_from(PRINTABLE_CONSTANTS).map(Constant),
        st.sampled_from(["X", "_Y", "Long_name1"]).map(Variable),
    )
    if max_depth == 0:
        return base
    return st.one_of(
        base,
        st.tuples(
            st.sampled_from(["f", "g"]),
            st.lists(first_order_terms(max_depth - 1), min_size=1, max_size=2),
        ).map(lambda pair: Compound(pair[0], tuple(pair[1]))),
    )


def first_order_programs():
    atoms = st.tuples(
        st.sampled_from(["p", "edge", "q2"]),
        st.lists(first_order_terms(), max_size=3),
    ).map(lambda pair: Atom(pair[0], tuple(pair[1])))
    literals = st.tuples(atoms, st.booleans()).map(lambda p: Literal(p[0], p[1]))
    rules = st.tuples(atoms, st.lists(literals, max_size=3)).map(
        lambda p: Rule(p[0], tuple(p[1]))
    )
    return st.lists(rules, min_size=1, max_size=8).map(Program)


class TestParserRoundTrip:
    @SETTINGS
    @given(program=propositional_programs())
    def test_print_then_parse_is_identity(self, program: Program):
        assert parse_program(str(program)) == program

    @SETTINGS
    @given(program=first_order_programs())
    def test_first_order_print_then_parse_is_identity(self, program: Program):
        # Rule by rule and in order: Program equality is set equality.
        assert parse_program(str(program)).rules == program.rules


class TestGroundingEquivalence:
    @SETTINGS
    @given(edges=st.lists(
        st.tuples(st.integers(1, 4), st.integers(1, 4)), min_size=0, max_size=6, unique=True
    ))
    def test_relevant_and_naive_grounding_agree_on_wfs(self, edges):
        program = complement_of_transitive_closure_program(edges)
        relevant = alternating_fixpoint(build_context(program, grounder="relevant"))
        naive = alternating_fixpoint(build_context(program, grounder="naive"))
        assert relevant.true_atoms() == naive.true_atoms()
        # Relevant grounding reports a subset of the (huge) naive false set.
        assert relevant.false_atoms() <= naive.false_atoms()


class TestStratifiedAgreement:
    @SETTINGS
    @given(edges=st.lists(
        st.tuples(st.integers(1, 5), st.integers(1, 5)), min_size=1, max_size=8, unique=True
    ))
    def test_wfs_is_total_and_equals_stratified_model_on_ntc(self, edges):
        program = complement_of_transitive_closure_program(edges)
        afp = alternating_fixpoint(program)
        stratified = stratified_model(program)
        assert afp.is_total
        assert afp.true_atoms() == stratified.true_atoms

    @SETTINGS
    @given(edges=st.lists(
        st.tuples(st.integers(1, 5), st.integers(1, 5)), min_size=1, max_size=8, unique=True
    ))
    def test_well_founded_nodes_match_direct_graph_computation(self, edges):
        # Compute the well-founded nodes independently: a node is well
        # founded iff it cannot reach a cycle following edges backwards.
        # Example 8.2 (and the discussion after it): the *positive* w
        # literals of the normal program's AFP model are exactly the
        # well-founded nodes; nodes on or below cycles come out undefined
        # rather than false (the normal program cannot capture the negation
        # of a universal closure), so only the positive part is compared.
        program = well_founded_nodes_program(edges)
        result = alternating_fixpoint(program)
        w_true = {a.args[0].value for a in result.true_atoms() if a.predicate == "w"}

        nodes = {n for edge in edges for n in edge}
        predecessors = {n: {s for s, t in edges if t == n} for n in nodes}

        def has_infinite_chain(node, path):
            if node in path:
                return True
            return any(has_infinite_chain(p, path | {node}) for p in predecessors[node])

        expected = {n for n in nodes if not has_infinite_chain(n, set())}
        assert w_true == expected
        # No node with an infinite descending chain is ever reported true.
        w_false_or_undef = {
            a.args[0].value
            for a in result.context.base
            if a.predicate == "w" and a not in result.true_atoms()
        }
        assert w_false_or_undef == nodes - expected

    @SETTINGS
    @given(edges=st.lists(
        st.tuples(st.integers(1, 5), st.integers(1, 5)), min_size=1, max_size=8, unique=True
    ))
    def test_afp_equals_wfs_on_nonground_programs(self, edges):
        program = well_founded_nodes_program(edges)
        afp = alternating_fixpoint(program)
        wfs = well_founded_model(program)
        assert afp.model.true_atoms == wfs.model.true_atoms
        assert afp.model.false_atoms == wfs.model.false_atoms
