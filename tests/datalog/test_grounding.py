"""Unit tests for Herbrand universes, bases, and grounding."""

import dataclasses

import pytest

from repro import solve
from repro.core.context import build_context
from repro.datalog.atoms import atom, neg, pos
from repro.datalog.grounding import (
    GroundingLimits,
    IncrementalGrounder,
    ground_program,
    herbrand_base,
    herbrand_universe,
    naive_ground,
    relevant_ground,
    scan_relevant_ground,
)
from repro.datalog.parser import parse_atom, parse_program
from repro.datalog.rules import Program, Rule
from repro.datalog.terms import Compound, Constant
from repro.exceptions import GroundingError, GroundingTimeout, SafetyError
from repro.obs import TraceRecorder
from repro.resilience import Budget, metered
from repro.semantics.horn import horn_minimum_model
from repro.storage import MemoryStore


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


#: The indexed grounder and the scan oracle, which must agree.
GROUNDERS = pytest.mark.parametrize(
    "ground", [relevant_ground, scan_relevant_ground], ids=["indexed", "scan"]
)


@GROUNDERS
class TestRelevantGround:
    def test_only_supported_instances_kept(self, ground):
        grounded = ground(parse_program(TC))
        heads = {rule.head for rule in grounded if rule.head.predicate == "tc"}
        assert heads == {atom("tc", 1, 2), atom("tc", 2, 3), atom("tc", 1, 3)}

    def test_agrees_with_naive_on_derivable_atoms(self, ground):
        program = parse_program(TC)
        relevant_heads = {r.head for r in ground(program)}
        naive_heads = {r.head for r in naive_ground(program)}
        assert relevant_heads <= naive_heads

    def test_negative_literals_preserved(self, ground):
        program = parse_program(
            "move(c, d). wins(X) :- move(X, Y), not wins(Y)."
        )
        grounded = ground(program)
        rule = next(r for r in grounded if r.head == atom("wins", "c"))
        assert neg("wins", "d") in rule.body

    def test_unsafe_rule_rejected(self, ground):
        with pytest.raises(SafetyError):
            ground(parse_program("p(X) :- not q(X)."))

    def test_duplicate_instances_deduplicated(self, ground):
        program = parse_program("e(1, 1). p(X) :- e(X, X). p(X) :- e(X, X).")
        grounded = ground(program)
        assert len([r for r in grounded if r.head == atom("p", 1)]) == 1

    def test_limit_enforced(self, ground):
        program = parse_program(
            "e(1, 2). e(2, 3). e(3, 1). tc(X, Y) :- e(X, Y). tc(X, Y) :- e(X, Z), tc(Z, Y)."
        )
        with pytest.raises(GroundingError):
            ground(program, GroundingLimits(max_rules=3))

    def test_mixed_arity_predicates_kept_apart(self, ground):
        # p occurs with two arities; the fact index must key on the full
        # (predicate, arity) signature.
        program = parse_program("p(1). p(1, 2). q(X) :- p(X). r(X, Y) :- p(X, Y).")
        grounded = ground(program)
        heads = {rule.head for rule in grounded}
        assert atom("q", 1) in heads
        assert atom("r", 1, 2) in heads
        assert atom("q", 2) not in heads

    def test_negative_only_body_rules_fire(self, ground):
        program = parse_program("p :- not q. r :- p.")
        grounded = ground(program)
        assert {rule.head for rule in grounded} == {atom("p"), atom("r")}

    def test_wall_clock_budget_enforced(self, ground):
        program = parse_program(
            "e(1, 2). e(2, 3). e(3, 4). e(4, 1). "
            "tc(X, Y) :- e(X, Y). tc(X, Y) :- e(X, Z), tc(Z, Y)."
        )
        with metered(Budget(max_seconds=1e-9)):
            with pytest.raises(GroundingTimeout) as excinfo:
                ground(program)
        assert excinfo.value.elapsed is not None
        assert excinfo.value.phase == "ground"

    def test_enclosing_deadline_trips_inside_a_nested_budget(self, ground):
        program = parse_program(TC)
        with metered(Budget(max_seconds=1e-9)):
            with metered(Budget(max_seconds=60.0)):
                with pytest.raises(GroundingTimeout) as excinfo:
                    ground(program)
        assert excinfo.value.phase == "ground"


class TestGroundingLimits:
    def test_size_limits_only(self):
        # Time is a Budget's to bound; GroundingLimits bounds size alone.
        fields = [field.name for field in dataclasses.fields(GroundingLimits)]
        assert fields == ["max_depth", "max_rules"]
        with pytest.raises(TypeError, match="max_seconds"):
            GroundingLimits(max_seconds=1.0)


class TestScanReference:
    def test_matchers_produce_identical_rule_sets(self):
        program = parse_program(TC)
        indexed = relevant_ground(program)
        scan = scan_relevant_ground(program)
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
        assert set(indexed) == set(scan_relevant_ground(program))
        assert any(not rule.is_fact for rule in indexed)

    def test_envelope_model_equals_the_scan_groundings_minimum_model(self, text, fact):
        program = parse_program(text)
        solution = solve(program)
        assert solution.context is None  # solved from the envelope
        reference = horn_minimum_model(build_context(scan_relevant_ground(program)))
        assert _rendered(solution.interpretation.true_atoms) == _rendered(
            reference.interpretation.true_atoms
        )
        assert _rendered(solution.base) == _rendered(reference.context.base)

    def test_extend_matches_grounding_from_scratch(self, text, fact):
        program = parse_program(text)
        grounder = IncrementalGrounder(program)
        facts, instances = grounder.ground()
        rules = {*map(Rule, facts), *instances}
        added = set(grounder.extend([parse_atom(fact)]))
        assert added and not added & rules
        grown = program.with_facts([parse_atom(fact)])
        scratch = set(relevant_ground(grown))
        assert rules | added | {Rule(parse_atom(fact))} == scratch
        assert scratch == set(scan_relevant_ground(grown))


class TestGroundRun:
    def test_facts_and_instances_are_the_materialised_grounding(self):
        program = parse_program(TC)
        facts, instances = IncrementalGrounder(program).ground()
        assert [*map(Rule, facts), *instances] == list(relevant_ground(program))

    def test_instances_are_grounded_as_they_are_read(self):
        # The facts come back at once; no envelope round runs before the
        # first instance is pulled.
        recorder = TraceRecorder()
        facts, instances = IncrementalGrounder(parse_program(TC), recorder=recorder).ground()
        assert facts == [atom("edge", 1, 2), atom("edge", 2, 3)]
        assert "ground.rounds" not in recorder.counter_totals()
        assert next(instances).body
        assert recorder.counter_totals()["ground.rounds"] == 1


class TestReadOrder:
    #: Program facts out of printed order, one of them twice.
    TEXT = "e(3, 1). e(1, 2). e(3, 1). p(X) :- e(X, Y), not q(Y). q(Y) :- e(Y, Y)."

    @pytest.mark.parametrize("backed", [False, True], ids=["program", "store"])
    def test_every_run_reads_program_then_store_facts(self, backed):
        program = parse_program(self.TEXT)
        expected = [atom("e", 3, 1), atom("e", 1, 2)]
        store = None
        if backed:
            store = MemoryStore()
            store.load([atom("e", 2, 2), atom("e", 1, 2), atom("e", 0, 5), atom("f", 9)])
            expected += [fact for fact in store.facts() if fact not in expected]
        facts, _ = IncrementalGrounder(program, store=store).ground()
        enveloped, _ = IncrementalGrounder(program, store=store).envelope()
        ir = IncrementalGrounder(program, store=store).ground_ir()
        assert facts == expected
        assert enveloped == expected
        assert [ir.atoms[atom_id] for atom_id in ir.fact_ids] == expected
        grounded = list(relevant_ground(program, store=store))
        assert grounded[: len(expected)] == [Rule(fact) for fact in expected]
        assert expected != sorted(expected, key=str)


class TestGroundProgram:
    def test_passthrough_for_ground_input(self):
        program = parse_program("p :- not q. q :- r.")
        assert ground_program(program) is program

    def test_grounds_non_ground_input(self):
        grounded = ground_program(parse_program(TC))
        assert grounded.is_ground
