"""No solve or session path orders atoms by their printed form.

Any callee-first order of the components is valid (Section 8), and EDB
facts are read in program-then-store order, so nothing on these paths
needs ``Atom.__str__``: with it raising, they must all complete.
"""

from __future__ import annotations

import random

import pytest

from repro import KnowledgeBase, solve
from repro.datalog.atoms import Atom
from repro.games import random_game_edges, win_move_program
from repro.storage import MemoryStore
from repro.workloads import layered_program, transitive_closure_program

WIN_RULE = "wins(X) :- move(X, Y), not wins(Y)."


def _random_edges(nodes: int, count: int, seed: int) -> list[tuple[str, str]]:
    generator = random.Random(seed)
    pairs = [(s, t) for s in range(nodes) for t in range(nodes) if s != t]
    return [(f"n{s}", f"n{t}") for s, t in generator.sample(pairs, count)]


def _seed1_text(name: str) -> str:
    """The seed-1 one-shot programs: layered 12x200, win-move over 2000
    moves and transitive closure over 230 edges on 40 nodes."""
    if name == "layered":
        program = layered_program(12, 200)
    elif name == "winmove":
        program = win_move_program(random_game_edges(2000, 2, seed=1))
    else:
        program = transitive_closure_program(_random_edges(40, 230, seed=1))
    return str(program)


def _refuse_printing(monkeypatch) -> None:
    def refuse(self):
        raise AssertionError(f"printed an atom of {self.predicate!r}")

    monkeypatch.setattr(Atom, "__str__", refuse)


@pytest.mark.parametrize("name, answer", [("layered", "chain"), ("winmove", "wins"), ("tc", "tc")])
def test_default_solves_print_no_atom(name, answer, monkeypatch):
    text = _seed1_text(name)
    _refuse_printing(monkeypatch)
    assert solve(text).relation(answer)


def test_store_backed_solve_prints_no_atom(monkeypatch):
    store = MemoryStore()
    store.load({"move": random_game_edges(2000, 2, seed=1)})
    _refuse_printing(monkeypatch)
    solution = solve(WIN_RULE, store=store)
    assert solution.relation("wins")
    assert len(solution.program) == len(store) + 1


def test_non_ground_session_prints_no_atom(monkeypatch):
    moves = random_game_edges(300, 2, seed=1)
    held_out = moves.pop()
    _refuse_printing(monkeypatch)
    kb = KnowledgeBase(WIN_RULE, facts={"move": moves})
    assert kb.query("wins").to_set()
    kb.assert_fact("move", *held_out)
    kb.query("wins").to_set()
    assert kb.last_update.mode == "delta"
    assert kb.last_update.rules_added >= 1
    kb.close()
