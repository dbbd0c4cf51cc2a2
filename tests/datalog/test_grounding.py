"""Unit tests for Herbrand universes, bases, and grounding."""

import dataclasses

import pytest

from repro import solve
from repro.core.context import build_context
from repro.datalog.atoms import atom, neg, pos
from repro.datalog.grounding import (
    DEFAULT_GROUNDING_MATCHER,
    GROUNDING_MATCHERS,
    GroundingLimits,
    IncrementalGrounder,
    ground_program,
    herbrand_base,
    herbrand_universe,
    naive_ground,
    relevant_ground,
    stream_relevant_ground,
)
from repro.datalog.parser import parse_atom, parse_program
from repro.datalog.rules import Program, Rule
from repro.datalog.terms import Compound, Constant
from repro.exceptions import GroundingError, GroundingTimeout, SafetyError
from repro.resilience import Budget, metered
from repro.semantics.horn import horn_minimum_model


TC = """
edge(1, 2). edge(2, 3).
tc(X, Y) :- edge(X, Y).
tc(X, Y) :- edge(X, Z), tc(Z, Y).
"""


class TestHerbrandUniverse:
    def test_constants_collected(self):
        universe = herbrand_universe(parse_program(TC))
        assert set(universe) == {Constant(1), Constant(2), Constant(3)}

    def test_invents_constant_when_none_present(self):
        program = parse_program("p(X) :- q(X).")
        assert herbrand_universe(program) == [Constant("u0")]

    def test_function_symbols_respect_depth(self):
        program = parse_program("num(z). num(s(X)) :- num(X).")
        depth0 = herbrand_universe(program, max_depth=0)
        depth2 = herbrand_universe(program, max_depth=2)
        assert Constant("z") in depth0
        assert Compound("s", (Compound("s", (Constant("z"),)),)) in depth2


class TestHerbrandBase:
    def test_restricted_to_idb_by_default(self):
        base = herbrand_base(parse_program(TC))
        predicates = {a.predicate for a in base}
        assert predicates == {"tc"}
        assert len(base) == 9

    def test_explicit_predicates(self):
        base = herbrand_base(parse_program(TC), predicates={"edge"})
        assert len(base) == 9

    def test_propositional_atom(self):
        base = herbrand_base(parse_program("p :- not q. q :- not p."))
        assert base == {atom("p"), atom("q")}


class TestNaiveGround:
    def test_ground_program_unchanged(self):
        program = parse_program("p :- not q. q.")
        assert set(naive_ground(program).rules) == set(program.rules)

    def test_instantiates_all_combinations(self):
        program = parse_program("e(1, 2). p(X, Y) :- e(X, Y).")
        grounded = naive_ground(program)
        # 2 constants, 2 variables -> 4 instantiations + 1 fact.
        assert len(grounded) == 5

    def test_limit_enforced(self):
        program = parse_program("e(1, 2). e(2, 3). e(3, 4). p(X, Y, Z) :- e(X, Y), e(Y, Z).")
        with pytest.raises(GroundingError):
            naive_ground(program, GroundingLimits(max_rules=10))

    def test_wall_clock_budget_enforced(self):
        # 5 constants cubed: 125 instances, past the meter's 64-tick stride.
        program = parse_program(
            "e(1, 2). e(2, 3). e(3, 4). e(4, 5). p(X, Y, Z) :- e(X, Y), e(Y, Z)."
        )
        with metered(Budget(max_seconds=1e-9)):
            with pytest.raises(GroundingTimeout) as excinfo:
                naive_ground(program)
        assert excinfo.value.elapsed is not None
        assert excinfo.value.phase == "ground"


@pytest.mark.parametrize("matcher", GROUNDING_MATCHERS)
class TestRelevantGround:
    def test_only_supported_instances_kept(self, matcher):
        grounded = relevant_ground(parse_program(TC), matcher=matcher)
        heads = {rule.head for rule in grounded if rule.head.predicate == "tc"}
        assert heads == {atom("tc", 1, 2), atom("tc", 2, 3), atom("tc", 1, 3)}

    def test_agrees_with_naive_on_derivable_atoms(self, matcher):
        program = parse_program(TC)
        relevant_heads = {r.head for r in relevant_ground(program, matcher=matcher)}
        naive_heads = {r.head for r in naive_ground(program)}
        assert relevant_heads <= naive_heads

    def test_negative_literals_preserved(self, matcher):
        program = parse_program(
            "move(c, d). wins(X) :- move(X, Y), not wins(Y)."
        )
        grounded = relevant_ground(program, matcher=matcher)
        rule = next(r for r in grounded if r.head == atom("wins", "c"))
        assert neg("wins", "d") in rule.body

    def test_unsafe_rule_rejected(self, matcher):
        with pytest.raises(SafetyError):
            relevant_ground(parse_program("p(X) :- not q(X)."), matcher=matcher)

    def test_duplicate_instances_deduplicated(self, matcher):
        program = parse_program("e(1, 1). p(X) :- e(X, X). p(X) :- e(X, X).")
        grounded = relevant_ground(program, matcher=matcher)
        assert len([r for r in grounded if r.head == atom("p", 1)]) == 1

    def test_limit_enforced(self, matcher):
        program = parse_program(
            "e(1, 2). e(2, 3). e(3, 1). tc(X, Y) :- e(X, Y). tc(X, Y) :- e(X, Z), tc(Z, Y)."
        )
        with pytest.raises(GroundingError):
            relevant_ground(program, GroundingLimits(max_rules=3), matcher=matcher)

    def test_mixed_arity_predicates_kept_apart(self, matcher):
        # p occurs with two arities; the fact index must key on the full
        # (predicate, arity) signature.
        program = parse_program("p(1). p(1, 2). q(X) :- p(X). r(X, Y) :- p(X, Y).")
        grounded = relevant_ground(program, matcher=matcher)
        heads = {rule.head for rule in grounded}
        assert atom("q", 1) in heads
        assert atom("r", 1, 2) in heads
        assert atom("q", 2) not in heads

    def test_negative_only_body_rules_fire(self, matcher):
        program = parse_program("p :- not q. r :- p.")
        grounded = relevant_ground(program, matcher=matcher)
        assert {rule.head for rule in grounded} == {atom("p"), atom("r")}

    def test_wall_clock_budget_enforced(self, matcher):
        program = parse_program(
            "e(1, 2). e(2, 3). e(3, 4). e(4, 1). "
            "tc(X, Y) :- e(X, Y). tc(X, Y) :- e(X, Z), tc(Z, Y)."
        )
        with metered(Budget(max_seconds=1e-9)):
            with pytest.raises(GroundingTimeout) as excinfo:
                relevant_ground(program, matcher=matcher)
        assert excinfo.value.elapsed is not None
        assert excinfo.value.phase == "ground"

    def test_enclosing_deadline_trips_inside_a_nested_budget(self, matcher):
        program = parse_program(TC)
        with metered(Budget(max_seconds=1e-9)):
            with metered(Budget(max_seconds=60.0)):
                with pytest.raises(GroundingTimeout) as excinfo:
                    relevant_ground(program, matcher=matcher)
        assert excinfo.value.phase == "ground"


class TestGroundingLimits:
    def test_size_limits_only(self):
        # Time is a Budget's to bound; GroundingLimits bounds size alone.
        fields = [field.name for field in dataclasses.fields(GroundingLimits)]
        assert fields == ["max_depth", "max_rules"]
        with pytest.raises(TypeError, match="max_seconds"):
            GroundingLimits(max_seconds=1.0)


class TestMatcherDispatch:
    def test_matchers_and_default(self):
        assert DEFAULT_GROUNDING_MATCHER == "indexed"
        assert set(GROUNDING_MATCHERS) == {"indexed", "scan"}

    def test_unknown_matcher_rejected(self):
        with pytest.raises(GroundingError, match="unknown grounding matcher"):
            relevant_ground(parse_program(TC), matcher="quantum")

    def test_matchers_produce_identical_rule_sets(self):
        program = parse_program(TC)
        indexed = relevant_ground(program, matcher="indexed")
        scan = relevant_ground(program, matcher="scan")
        assert set(indexed.rules) == set(scan.rules)


#: Programs with function symbols, each with a fact asserted afterwards.
FUNCTION_PROGRAMS = [
    (
        "n(z). n(s(z)). succ(X, s(X)) :- n(X). g(X) :- succ(X, s(Y)), n(Y).",
        "n(s(s(z)))",
    ),
    (
        "e(f(a, b)). e(f(b, b)). p(X) :- e(f(X, X)). r(X, Y) :- e(f(X, Y)), e(f(Y, Y)).",
        "e(f(a, a))",
    ),
]


def _rendered(atoms):
    return sorted(map(str, atoms))


@pytest.mark.parametrize("text, fact", FUNCTION_PROGRAMS)
class TestFunctionSymbols:
    """Compound arguments in the relevant grounder: matched structurally in
    free positions, built into probe keys and heads once bound."""

    def test_indexed_rule_set_equals_the_scan_matchers(self, text, fact):
        program = parse_program(text)
        indexed = relevant_ground(program)
        assert set(indexed) == set(relevant_ground(program, matcher="scan"))
        assert any(not rule.is_fact for rule in indexed)

    def test_envelope_model_equals_the_scan_groundings_minimum_model(self, text, fact):
        program = parse_program(text)
        solution = solve(program)
        assert solution.context is None  # solved from the envelope
        reference = horn_minimum_model(build_context(relevant_ground(program, matcher="scan")))
        assert _rendered(solution.interpretation.true_atoms) == _rendered(
            reference.interpretation.true_atoms
        )
        assert _rendered(solution.base) == _rendered(reference.context.base)

    def test_extend_matches_grounding_from_scratch(self, text, fact):
        program = parse_program(text)
        grounder = IncrementalGrounder(program)
        rules = set(grounder.ground())
        added = set(grounder.extend([parse_atom(fact)]))
        assert added and not added & rules
        grown = program.with_facts([parse_atom(fact)])
        scratch = set(relevant_ground(grown))
        assert rules | added | {Rule(parse_atom(fact))} == scratch
        assert scratch == set(relevant_ground(grown, matcher="scan"))


class TestStreamRelevantGround:
    def test_stream_matches_materialised_grounding(self):
        program = parse_program(TC)
        streamed = list(stream_relevant_ground(program))
        assert set(streamed) == set(relevant_ground(program).rules)

    def test_facts_streamed_first_in_sorted_order(self):
        program = parse_program(TC)
        streamed = list(stream_relevant_ground(program))
        fact_block = [rule for rule in streamed if rule.is_fact]
        assert streamed[: len(fact_block)] == fact_block
        assert fact_block == sorted(fact_block, key=lambda rule: str(rule.head))

    def test_stream_is_incremental(self):
        # Pulling the first rule must not require grounding everything.
        stream = stream_relevant_ground(parse_program(TC))
        first = next(stream)
        assert first.is_fact


class TestGroundProgram:
    def test_passthrough_for_ground_input(self):
        program = parse_program("p :- not q. q :- r.")
        assert ground_program(program) is program

    def test_grounds_non_ground_input(self):
        grounded = ground_program(parse_program(TC))
        assert grounded.is_ground
