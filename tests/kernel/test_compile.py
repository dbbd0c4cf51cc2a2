"""Unit tests for lowering a ground program to the flat int IR: the three
front ends (a built context, the grounder's bindings, a ground program's
rules) and the back end they share."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.context import build_context
from repro.datalog import parse_program
from repro.datalog.atoms import atom
from repro.datalog.grounding import IncrementalGrounder
from repro.kernel import (
    compile_context,
    condense,
    evaluate_model,
    get_kernel,
    kernel_model,
    lower_program,
)
from repro.obs import TraceRecorder
from repro.storage import MemoryStore

GAME_TEXT = """
move(a, b). move(b, a). move(b, c).
wins(X) :- move(X, Y), not wins(Y).
"""


def _compiled(text: str):
    return compile_context(build_context(parse_program(text)))


def _names(compiled) -> list[str]:
    return [str(a) for a in compiled.atoms]


#: Grounds and compiles a non-ground win-move program in a fresh
#: interpreter and prints its id orders and model, so two hash seeds can be
#: compared.  Through a context, the grounder's emission order feeds the
#: rule atoms' ids, and the facts no rule reads and the full-base atoms
#: take the later ids; grounded straight into ids (``solve``'s route, with
#: the moves in the program or in a store), the facts come first.
_HASH_SEED_SCRIPT = """
import json
from repro.core.context import build_context
from repro.datalog import parse_program
from repro.datalog.grounding import IncrementalGrounder
from repro.datalog.rules import Program
from repro.games.graphs import random_game_edges
from repro.games.winmove import win_move_program
from repro.kernel import compile_context, condense, kernel_model
from repro.storage import MemoryStore

program = Program.union(
    win_move_program(random_game_edges(60, 2, 3)),
    parse_program("seen(d). seen(c). seen(b). seen(a)."),
)
context = build_context(program, full_base=True)
model = kernel_model(context)
store = MemoryStore()
store.load(rule.head for rule in program.facts())
rules = Program(program.non_fact_rules())
print(json.dumps({
    "atoms": [repr(a) for a in compile_context(context).atoms],
    "route": [repr(a) for a in condense(IncrementalGrounder(program).ground_ir()).atoms],
    "store": [
        repr(a) for a in condense(IncrementalGrounder(rules, store=store).ground_ir()).atoms
    ],
    "true": sorted(map(str, model.true_atoms)),
    "false": sorted(map(str, model.false_atoms)),
}))
"""


class TestAtomIds:
    def test_ids_are_dense_and_bijective(self):
        context = build_context(parse_program(GAME_TEXT))
        compiled = compile_context(context)
        assert len(compiled.atoms) == compiled.n_atoms == len(context.base)
        assert set(compiled.atoms) == context.base
        ids = {a: i for i, a in enumerate(compiled.atoms)}
        assert len(ids) == compiled.n_atoms
        assert sorted(ids.values()) == list(range(compiled.n_atoms))
        assert atom("missing") not in ids

    def test_duplicate_atoms_collapse_to_one_id(self):
        compiled = _compiled("p :- q, q, not r, not r. s :- q, not r. q.")
        assert sorted(_names(compiled)) == ["p", "q", "r", "s"]
        q = compiled.atoms.index(atom("q"))
        bodies = [
            list(compiled.pos_atoms[compiled.pos_off[r] : compiled.pos_off[r + 1]])
            for r in range(compiled.n_rules)
        ]
        assert bodies == [[q], [q]]

    def test_ids_follow_rule_order(self):
        # Each rule's head, then its positive body, then its negative body.
        compiled = _compiled("z :- y, not x. a :- b, z, not c. b :- not w.")
        assert _names(compiled) == ["z", "y", "x", "a", "b", "c", "w"]
        reordered = _compiled("b :- not w. z :- y, not x. a :- b, z, not c.")
        assert _names(reordered) == ["b", "w", "z", "y", "x", "a", "c"]

    def test_facts_in_program_order_then_the_remaining_base(self):
        # Facts no rule mentions follow the rule atoms in program order;
        # extra base atoms come last, sorted by repr.
        context = build_context(
            parse_program("f2. p :- f1. f1. f0."),
            extra_atoms=[atom("e", 2), atom("e", 1)],
        )
        compiled = compile_context(context)
        assert _names(compiled) == ["p", "f1", "f2", "f0", "e(1)", "e(2)"]
        facts = sorted(str(compiled.atoms[i]) for i in compiled.fact_ids)
        assert facts == ["f0", "f1", "f2"]

    def test_model_does_not_depend_on_the_id_order(self):
        rules = [
            "win(a) :- move(a, b), not win(b).",
            "win(b) :- move(b, a), not win(a).",
            "win(b) :- move(b, c), not win(c).",
            "move(a, b). move(b, a). move(b, c).",
        ]
        forward = build_context(parse_program(" ".join(rules)))
        backward = build_context(parse_program(" ".join(reversed(rules))))
        assert compile_context(forward).atoms != compile_context(backward).atoms
        assert kernel_model(forward) == kernel_model(backward)

    def test_atoms_and_model_are_independent_of_the_hash_seed(self):
        src = str(Path(__file__).resolve().parents[2] / "src")
        outputs = []
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            completed = subprocess.run(
                [sys.executable, "-c", _HASH_SEED_SCRIPT],
                env=env,
                capture_output=True,
                text=True,
                check=True,
                timeout=60,
            )
            outputs.append(json.loads(completed.stdout))
        assert outputs[0]["atoms"] and outputs[0]["route"] and outputs[0]["store"]
        assert outputs[0] == outputs[1]


class TestCsrInvariants:
    def test_offsets_are_monotone_with_trailing_entry(self):
        compiled = _compiled(GAME_TEXT)
        assert len(compiled.heads) == compiled.n_rules
        for off, payload in (
            (compiled.pos_off, compiled.pos_atoms),
            (compiled.neg_off, compiled.neg_atoms),
            (compiled.head_off, compiled.head_rules),
            (compiled.comp_off, compiled.comp_atoms),
        ):
            assert off[0] == 0
            assert off[-1] == len(payload)
            assert all(off[i] <= off[i + 1] for i in range(len(off) - 1))
        assert len(compiled.pos_off) == compiled.n_rules + 1
        assert len(compiled.head_off) == compiled.n_atoms + 1
        assert len(compiled.comp_off) == compiled.n_components + 1

    def test_bodies_are_deduplicated_and_sorted(self):
        compiled = _compiled("p :- q, q, r, r, not s, not s. q. r.")
        rule = next(
            i
            for i in range(compiled.n_rules)
            if compiled.atoms[compiled.heads[i]].predicate == "p"
        )
        pos = list(compiled.pos_atoms[compiled.pos_off[rule] : compiled.pos_off[rule + 1]])
        neg = list(compiled.neg_atoms[compiled.neg_off[rule] : compiled.neg_off[rule + 1]])
        assert pos == sorted(set(pos)) and len(pos) == 2
        assert neg == sorted(set(neg)) and len(neg) == 1

    def test_head_index_inverts_heads(self):
        compiled = _compiled(GAME_TEXT)
        for atom_id in range(compiled.n_atoms):
            rules = compiled.head_rules[
                compiled.head_off[atom_id] : compiled.head_off[atom_id + 1]
            ]
            assert all(compiled.heads[r] == atom_id for r in rules)
        derived = {compiled.heads[r] for r in range(compiled.n_rules)}
        indexed = {
            atom_id
            for atom_id in range(compiled.n_atoms)
            if compiled.head_off[atom_id] < compiled.head_off[atom_id + 1]
        }
        assert derived == indexed


class TestCondensation:
    def test_components_partition_the_universe(self):
        compiled = _compiled(GAME_TEXT)
        assert sorted(compiled.comp_atoms) == list(range(compiled.n_atoms))
        for comp in range(compiled.n_components):
            members = compiled.comp_atoms[
                compiled.comp_off[comp] : compiled.comp_off[comp + 1]
            ]
            assert all(compiled.comp_of[a] == comp for a in members)

    def test_callees_first_topological_numbering(self):
        compiled = _compiled(GAME_TEXT)
        for rule in range(compiled.n_rules):
            head_comp = compiled.comp_of[compiled.heads[rule]]
            body = list(
                compiled.pos_atoms[compiled.pos_off[rule] : compiled.pos_off[rule + 1]]
            ) + list(
                compiled.neg_atoms[compiled.neg_off[rule] : compiled.neg_off[rule + 1]]
            )
            assert all(compiled.comp_of[b] <= head_comp for b in body)

    def test_mutual_recursion_shares_a_component(self):
        compiled = _compiled("win :- not lose. lose :- not win. base.")
        win, lose, base = (
            compiled.atoms.index(atom("win")),
            compiled.atoms.index(atom("lose")),
            compiled.atoms.index(atom("base")),
        )
        assert compiled.comp_of[win] == compiled.comp_of[lose]
        assert compiled.comp_of[base] != compiled.comp_of[win]

    def test_self_dependency_flag(self):
        compiled = _compiled("p :- not p. q :- r. r.")
        assert compiled.self_dep[compiled.atoms.index(atom("p"))] == 1
        assert compiled.self_dep[compiled.atoms.index(atom("q"))] == 0


class TestCachingAndCounters:
    def test_get_kernel_caches_on_the_context(self):
        context = build_context(parse_program(GAME_TEXT))
        first = get_kernel(context)
        assert get_kernel(context) is first

    def test_fact_ids_cover_the_edb(self):
        compiled = _compiled(GAME_TEXT)
        facts = {compiled.atoms[i].predicate for i in compiled.fact_ids}
        assert facts == {"move"}

    def test_compile_emits_kernel_counters(self):
        recorder = TraceRecorder()
        context = build_context(parse_program(GAME_TEXT))
        compiled = compile_context(context, recorder)
        assert recorder.counters["kernel.atoms"] == compiled.n_atoms
        assert recorder.counters["kernel.rules"] == compiled.n_rules
        assert recorder.counters["kernel.bytes"] == compiled.nbytes()

    def test_statistics_shape(self):
        compiled = _compiled(GAME_TEXT)
        stats = compiled.statistics()
        assert stats["atoms"] == compiled.n_atoms
        assert stats["rules"] == compiled.n_rules
        assert stats["components"] == compiled.n_components
        assert stats["bytes"] == compiled.nbytes() > 0
        assert stats["body_entries"] == len(compiled.pos_atoms) + len(compiled.neg_atoms)


def _front_ends(text: str) -> dict:
    """*text* lowered by every front end that applies to it, through the
    shared back end."""
    program = parse_program(text)
    lowered = {
        "context": compile_context(build_context(program)),
        "grounder": condense(IncrementalGrounder(program).ground_ir()),
    }
    if program.is_ground:
        lowered["program"] = condense(lower_program(program))
    return lowered


def _assert_well_formed(compiled) -> None:
    """The IR's invariants: dense bijective ids, CSR offsets with a
    trailing entry, deduplicated bodies, a head index inverting the heads
    and a callees-first partition into components."""
    assert len(set(compiled.atoms)) == len(compiled.atoms) == compiled.n_atoms
    for off, payload, segments in (
        (compiled.pos_off, compiled.pos_atoms, compiled.n_rules),
        (compiled.neg_off, compiled.neg_atoms, compiled.n_rules),
        (compiled.head_off, compiled.head_rules, compiled.n_atoms),
        (compiled.comp_off, compiled.comp_atoms, compiled.n_components),
    ):
        assert len(off) == segments + 1 and off[0] == 0 and off[-1] == len(payload)
        assert all(off[i] <= off[i + 1] for i in range(segments))
    for rule in range(compiled.n_rules):
        head = compiled.heads[rule]
        assert rule in compiled.head_rules[compiled.head_off[head] : compiled.head_off[head + 1]]
        pos = list(compiled.pos_atoms[compiled.pos_off[rule] : compiled.pos_off[rule + 1]])
        neg = list(compiled.neg_atoms[compiled.neg_off[rule] : compiled.neg_off[rule + 1]])
        assert len(set(pos)) == len(pos) and len(set(neg)) == len(neg)
        assert all(compiled.comp_of[body] <= compiled.comp_of[head] for body in pos + neg)
    assert sorted(compiled.comp_atoms) == list(range(compiled.n_atoms))


class TestFrontEnds:
    #: Programs whose every ground rule has a supported positive body, so
    #: the relevant grounder keeps all of a ground program's rules.
    PROGRAMS = [
        GAME_TEXT,
        "p :- q, q, r, r, not s, not s. q. r.",
        "win :- not lose. lose :- not win. base. p :- not p. q :- base, not p.",
        # The second rule is the first under other names: no new instance.
        "e(1, 2). e(2, 1). e(2, 3). t(X) :- e(X, Y), not t(Y). t(A) :- e(A, B), not t(B).",
    ]

    @pytest.mark.parametrize("text", PROGRAMS)
    def test_every_front_end_lowers_the_same_program(self, text):
        lowered = _front_ends(text)
        reference = lowered["context"]
        model = evaluate_model(reference)
        for name, compiled in lowered.items():
            _assert_well_formed(compiled)
            assert set(compiled.atoms) == set(reference.atoms), name
            assert (compiled.n_rules, compiled.n_components) == (
                reference.n_rules,
                reference.n_components,
            ), name
            facts = {compiled.atoms[i] for i in compiled.fact_ids}
            assert facts == {reference.atoms[i] for i in reference.fact_ids}, name
            self_dep = {compiled.atoms[i] for i in range(compiled.n_atoms) if compiled.self_dep[i]}
            assert self_dep == {
                reference.atoms[i] for i in range(reference.n_atoms) if reference.self_dep[i]
            }, name
            assert evaluate_model(compiled) == model, name

    def test_grounder_ids_facts_first_then_as_bindings_meet_atoms(self):
        program = parse_program(
            "move(b, a). move(a, b). move(b, c). wins(X) :- move(X, Y), not wins(Y)."
        )
        ir = IncrementalGrounder(program).ground_ir()
        assert [str(a) for a in ir.atoms] == [
            "move(b, a)", "move(a, b)", "move(b, c)", "wins(b)", "wins(a)", "wins(c)"
        ]
        assert ir.fact_ids == [0, 1, 2]
        assert ir.heads == [3, 4, 3]
        assert (ir.pos_atoms, ir.neg_atoms) == ([0, 1, 2], [4, 3, 5])

    def test_grounder_ids_program_facts_then_store_rows(self):
        store = MemoryStore()
        store.load([atom("move", "c", "d"), atom("move", "a", "b")])
        program = parse_program("move(b, a). move(a, b). wins(X) :- move(X, Y), not wins(Y).")
        ir = IncrementalGrounder(program, store=store).ground_ir()
        assert [str(a) for a in ir.atoms[:3]] == ["move(b, a)", "move(a, b)", "move(c, d)"]
        assert ir.fact_ids == [0, 1, 2]

    def test_lower_program_reads_rules_in_program_order(self):
        ir = lower_program(parse_program("z :- y, not x. f. a :- b, z, not c. f."))
        assert [str(a) for a in ir.atoms] == ["z", "y", "x", "f", "a", "b", "c"]
        assert ir.fact_ids == [3]
        assert ir.heads == [0, 4]

    def test_condense_emits_kernel_counters(self):
        recorder = TraceRecorder()
        compiled = condense(IncrementalGrounder(parse_program(GAME_TEXT)).ground_ir(), recorder)
        assert recorder.counters["kernel.atoms"] == compiled.n_atoms
        assert recorder.counters["kernel.rules"] == compiled.n_rules
        assert recorder.counters["kernel.bytes"] == compiled.nbytes()
