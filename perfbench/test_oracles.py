"""Each oracle of the benchmark must catch a wrong answer.

Run from the root of a checkout with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import itertools
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import Run, use_checkout_sources  # noqa: E402

use_checkout_sources()

import inputs  # noqa: E402
import oracles  # noqa: E402
import wl_session  # noqa: E402
import wl_solve  # noqa: E402

from repro import (  # noqa: E402
    KnowledgeBase,
    PartialInterpretation,
    Program,
    parse_program,
    solve,
)
from repro.games import random_game_edges, win_move_program  # noqa: E402

EDGES = [("a", "b"), ("b", "a"), ("b", "c"), ("c", "d"), ("e", "d")]


def _flip_one_true_atom(solution):
    """The solution's interpretation with one true atom made undefined."""
    interpretation = solution.interpretation
    victim = sorted(interpretation.true_atoms, key=str)[0]
    return PartialInterpretation(
        interpretation.true_atoms - {victim}, interpretation.false_atoms
    )


def test_game_values_is_the_well_founded_model():
    for seed in range(3):
        edges = random_game_edges(60, 2, seed=seed)
        solution = solve(win_move_program(edges))
        won, drawn = oracles.game_values(edges)
        assert {row[0] for row in solution.relation("wins")} == won
        assert {row[0] for row in solution.undefined_relation("wins")} == drawn
    assert oracles.game_values(EDGES) == ({"c", "e"}, {"a", "b"})


def test_model_oracle_accepts_the_reference_and_catches_one_wrong_atom():
    program = win_move_program(random_game_edges(80, 2, seed=4))
    solution = solve(program)
    reference = oracles.reference_digest(program)
    good = oracles.digest(solution.interpretation, solution.base)
    assert oracles.compare_models("solve", good, reference) == []
    bad = oracles.digest(_flip_one_true_atom(solution), solution.base)
    assert oracles.compare_models("solve", bad, reference)


def test_solve_loop_counts_a_wrong_model_as_a_failure(monkeypatch):
    text = str(win_move_program(random_game_edges(80, 2, seed=5)))
    warm = solve(text)
    baseline = oracles.digest(warm.interpretation, warm.base)
    calls = []

    def sometimes_wrong(program_text):
        solution = solve(program_text)
        calls.append(solution)
        if len(calls) == 2:
            return type(solution)(
                program=solution.program,
                semantics=solution.semantics,
                interpretation=_flip_one_true_atom(solution),
                base=solution.base,
            )
        return solution

    monkeypatch.setattr(wl_solve, "solve", sometimes_wrong)
    run = Run("solve-winmove", 5, False)
    wl_solve._untraced_pass(run, text, "wins", baseline, 0.3, None)
    assert run.attempted >= 3
    assert run.failed >= 1 and not run.correct


def test_win_oracle_catches_a_wrong_row():
    won, drawn = oracles.game_values(EDGES)
    rows_true = {(node,) for node in won}
    rows_undefined = {(node,) for node in drawn}
    assert oracles.check_wins("ok", EDGES, rows_true, rows_undefined) == []
    assert oracles.check_wins("bad", EDGES, rows_true | {("d",)}, rows_undefined)
    assert oracles.check_wins("bad", EDGES, rows_true, rows_undefined - {("a",)})


def test_session_loop_counts_a_wrong_read_as_a_failure(monkeypatch):
    scenario = wl_session.Scenario("session-ground", 3)
    kb = scenario.build()
    real_read = scenario.read
    reads = []

    def sometimes_wrong(session, atom):
        true_rows, undefined_rows = real_read(session, atom)
        reads.append(None)
        if len(reads) == 3:
            true_rows = set(true_rows) | {("nowhere",)}
        return true_rows, undefined_rows

    monkeypatch.setattr(scenario, "read", sometimes_wrong)
    run = Run("session-ground", 3, False)
    wl_session._untraced_pass(run, scenario, kb, itertools.islice(scenario.operations(), 6), 30, None)
    kb.close()
    assert run.attempted == 6
    assert run.failed == 1


def test_social_oracle_matches_the_session_and_catches_a_wrong_row():
    social = inputs.Social(2, steps=20)
    kb = KnowledgeBase(social.rules, facts=social.facts)
    mirror = oracles.SocialMirror(social.facts)
    for kind, atom in ((op.kind, op.atom) for op in social.stream):
        (kb.assert_fact if kind == "assert" else kb.retract_fact)(atom)
        mirror.apply(kind, atom)
        for predicate in ("reach", "influencer", "isolated"):
            rows = kb.query(predicate).to_set()
            assert oracles.check_rows(predicate, rows, mirror.relation(predicate)) == []
    reach = kb.query("reach").to_set()
    assert oracles.check_rows("reach", reach - {min(reach)}, mirror.relation("reach"))
    kb.close()


def test_final_state_oracle_catches_a_wrong_session_model():
    game = inputs.Game(6)
    kb = KnowledgeBase(inputs.WIN_RULE, facts=game.facts())
    for kind, edge in game.stream(4):
        (kb.assert_fact if kind == "assert" else kb.retract_fact)(inputs.move(*edge))
    reference = oracles.reference_digest(oracles.session_program(kb))
    solution = kb.solution
    assert oracles.compare_models(
        "final", oracles.digest(solution.interpretation, solution.base), reference
    ) == []
    wrong = oracles.digest(_flip_one_true_atom(solution), solution.base)
    assert oracles.compare_models("final", wrong, reference)
    kb.close()


def _http_records():
    """A correct exchange: two writes, reads at epochs 1, 2 and 3."""
    edges = list(EDGES)
    writes = [
        {"op": "retract", "edge": ("e", "d"), "status": 200,
         "body": {"changed": True, "epoch": 2}},
        {"op": "assert", "edge": ("d", "a"), "status": 200,
         "body": {"changed": True, "epoch": 3}},
    ]
    reads = []
    for epoch, current in (
        (1, edges),
        (2, [e for e in edges if e != ("e", "d")]),
        (3, [e for e in edges if e != ("e", "d")] + [("d", "a")]),
    ):
        won, drawn = oracles.game_values(current)
        rows = [list(row) for row in sorted(((n,) for n in won), key=repr)]
        reads.append({"kind": "query", "target": None, "status": 200,
                      "body": {"rows": rows, "pagination": {"total": len(won)},
                               "epoch": epoch}})
        for node in ("a", "c", "e"):
            verdict = "true" if node in won else "undefined" if node in drawn else "false"
            reads.append({"kind": "ask", "target": node, "status": 200,
                          "body": {"verdict": verdict, "epoch": epoch}})
    return edges, writes, reads


def test_http_oracle_accepts_a_correct_exchange():
    edges, writes, reads = _http_records()
    assert oracles.check_http(edges, writes, reads, first_epoch=1) == []


def test_http_oracle_catches_each_kind_of_wrong_response():
    edges, writes, reads = _http_records()

    def errors_after(change):
        w = [dict(x, body=dict(x["body"])) for x in writes]
        r = [dict(x, body=dict(x["body"])) for x in reads]
        change(w, r)
        return oracles.check_http(edges, w, r, first_epoch=1)

    # a read served from the wrong epoch's model
    assert errors_after(lambda w, r: r[4]["body"].update(epoch=1))
    # a wrong verdict
    assert errors_after(lambda w, r: r[1]["body"].update(verdict="false"))
    # a wrong page of rows
    assert errors_after(lambda w, r: r[0]["body"].update(rows=[]))
    # an epoch that was never published
    assert errors_after(lambda w, r: r[0]["body"].update(epoch=9))
    # a non-2xx response
    assert errors_after(lambda w, r: r[2].update(status=503))
    # a write that changed nothing
    assert errors_after(lambda w, r: w[0]["body"].update(changed=False))
    # epochs that do not increase
    assert errors_after(lambda w, r: w[1]["body"].update(epoch=2))


def test_session_program_is_rules_plus_current_facts():
    kb = KnowledgeBase("p(X) :- q(X), not r(X).", facts={"q": [(1,), (2,)], "r": [(2,)]})
    kb.retract_fact("r", 2)
    program = oracles.session_program(kb)
    assert program == Program(parse_program("p(X) :- q(X), not r(X). q(1). q(2)."))
    kb.close()
