"""Differential property tests: indexed grounder ≡ scan oracle ≡ naive.

The indexed semi-naive grounder must be a pure performance change: on
randomly generated non-ground programs (plus the named graph workloads) it
has to produce the *identical ground rule set* as the original scan
matcher, and the models computed on its grounding — well-founded, stable,
stratified, Horn — must match the scan grounding and the literal Herbrand
instantiation ``naive_ground``.  Atoms the relevant grounders drop are
exactly the underivable ones, so on the naive grounding they must come out
*false* in the well-founded model.
"""

from __future__ import annotations

import pytest

from repro.core.alternating import alternating_fixpoint
from repro.core.context import build_context
from repro.core.stable import stable_models
from repro.core.wellfounded import well_founded_model
from repro.datalog.grounding import naive_ground, relevant_ground, scan_relevant_ground
from repro.games import binary_tree_edges, chain_edges, random_game_edges, win_move_program
from repro.semantics.horn import horn_minimum_model
from repro.semantics.stratified import stratified_model
from repro.workloads import (
    complement_of_transitive_closure_program,
    random_nonground_program,
    same_generation_program,
    transitive_closure_program,
)

SEEDS = list(range(10))


def generated(seed: int, **overrides):
    parameters = dict(constants=3, edb_relations=2, idb_relations=2, facts=8, rules=6)
    parameters.update(overrides)
    return random_nonground_program(seed=seed, **parameters)


def named_workloads():
    return [
        transitive_closure_program(chain_edges(8)),
        same_generation_program(binary_tree_edges(3)),
        win_move_program(random_game_edges(12, out_degree=3, seed=3)),
        complement_of_transitive_closure_program(chain_edges(4)),
    ]


def contexts(program):
    """*program* grounded three ways: by the indexed relevant grounder, by
    the scan matcher's relevant grounding, and by naive instantiation."""
    return {
        "relevant": build_context(program, grounder="relevant"),
        "scan": build_context(scan_relevant_ground(program)),
        "naive": build_context(program, grounder="naive"),
    }


class TestGroundRuleSets:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_indexed_and_scan_rule_sets_identical(self, seed):
        program = generated(seed)
        indexed = relevant_ground(program)
        scan = scan_relevant_ground(program)
        assert set(indexed.rules) == set(scan.rules)

    @pytest.mark.parametrize("index", range(4))
    def test_workload_rule_sets_identical(self, index):
        program = named_workloads()[index]
        indexed = relevant_ground(program)
        scan = scan_relevant_ground(program)
        assert set(indexed.rules) == set(scan.rules)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_relevant_is_a_subset_of_naive_instantiation(self, seed):
        program = generated(seed)
        relevant_heads = {rule.head for rule in relevant_ground(program)}
        naive_heads = {rule.head for rule in naive_ground(program)}
        assert relevant_heads <= naive_heads


class TestWellFoundedEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_indexed_vs_scan_contexts(self, seed):
        program = generated(seed)
        fast = alternating_fixpoint(build_context(program, grounder="relevant"))
        slow = alternating_fixpoint(build_context(scan_relevant_ground(program)))
        assert fast.true_atoms() == slow.true_atoms()
        assert fast.false_atoms() == slow.false_atoms()

    @pytest.mark.parametrize("seed", SEEDS)
    def test_indexed_vs_naive_grounding(self, seed):
        program = generated(seed)
        relevant_context = build_context(program, grounder="relevant")
        naive_context = build_context(program, grounder="naive")
        fast = well_founded_model(relevant_context)
        naive = well_founded_model(naive_context)
        # Same positive conclusions, and identical verdicts on every atom
        # the relevant grounding keeps.
        assert fast.model.true_atoms == naive.model.true_atoms
        assert fast.model.false_atoms <= naive.model.false_atoms
        # The atoms the relevant grounder drops are exactly the underivable
        # ones: the naive grounding must call them false.
        for atom in naive_context.base - relevant_context.base:
            assert atom in naive.model.false_atoms


class TestStableEquivalence:
    @pytest.mark.parametrize("seed", SEEDS[:6])
    def test_stable_model_sets_identical(self, seed):
        program = generated(seed, facts=6, rules=5)
        models = {
            name: {model.true_atoms for model in stable_models(context)}
            for name, context in contexts(program).items()
        }
        assert models["relevant"] == models["scan"] == models["naive"]


class TestHornEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_minimum_models_identical(self, seed):
        program = generated(seed, negation_probability=0.0)
        assert program.is_definite
        fast = horn_minimum_model(build_context(program, grounder="relevant"))
        slow = horn_minimum_model(build_context(scan_relevant_ground(program)))
        naive = horn_minimum_model(build_context(program, grounder="naive"))
        assert fast.true_atoms == slow.true_atoms == naive.true_atoms


class TestStratifiedEquivalence:
    @pytest.mark.parametrize("length", [3, 5])
    def test_perfect_model_matches_wfs_on_every_grounding(self, length):
        program = complement_of_transitive_closure_program(chain_edges(length))
        perfect = stratified_model(program).true_atoms
        for context in contexts(program).values():
            assert alternating_fixpoint(context).true_atoms() == perfect

    def test_same_generation_is_identical_across_grounders(self):
        program = same_generation_program(binary_tree_edges(3))
        truths = {
            name: alternating_fixpoint(context).true_atoms()
            for name, context in contexts(program).items()
        }
        assert truths["relevant"] == truths["scan"] == truths["naive"]
