"""Seeded inputs of every workload.  The same seed gives the same inputs;
the program under test receives only what these functions generate.

Sizes are chosen so the work per operation is nearly the same for every
seed: the graphs have a fixed node count and a (nearly) fixed edge
count, and churn keeps the EDB at its initial size.
"""

from __future__ import annotations

import itertools
import random
from collections.abc import Iterator

from repro import Atom, Program
from repro.datalog.terms import Constant
from repro.games import random_game_edges, win_move_program
from repro.workloads import (
    layered_program,
    social_graph_stream,
    transitive_closure_program,
)

Edge = tuple[str, str]

#: One-shot programs: name -> (answer relation, description).
SOLVE_PROGRAMS = {
    "layered": ("chain", "layered_program(12, 200), ground, negation through recursion"),
    "winmove": ("wins", "win-move rule over random_game_edges(2000, 2, seed)"),
    "tc": ("tc", "transitive closure over a random digraph, 40 nodes, 230 edges"),
}

WIN_RULE = "wins(X) :- move(X, Y), not wins(Y)."
GAME_NODES = 1000
GAME_OUT_DEGREE = 2
#: Moves of the generated game left out of the initial EDB for churn to assert.
GAME_HELD_OUT = 100
SOCIAL_PEOPLE = 300
TC_NODES = 40
TC_EDGES = 230


def solve_program(name: str, seed: int) -> str:
    """Program text of one one-shot workload."""
    if name == "layered":
        program = layered_program(12, 200)
    elif name == "winmove":
        program = win_move_program(random_game_edges(2000, 2, seed=seed))
    elif name == "tc":
        program = transitive_closure_program(random_edges(TC_NODES, TC_EDGES, seed))
    else:
        raise ValueError(f"unknown one-shot program {name!r}")
    return str(program)


def random_edges(nodes: int, count: int, seed: int) -> list[Edge]:
    """*count* distinct directed edges without self loops, uniformly drawn."""
    generator = random.Random(seed)
    pairs = [(s, t) for s in range(nodes) for t in range(nodes) if s != t]
    return [(f"n{s}", f"n{t}") for s, t in generator.sample(pairs, count)]


def move(source: str, target: str) -> Atom:
    return Atom("move", (Constant(source), Constant(target)))


class Game:
    """The win-move game the session and HTTP workloads churn.

    The moves of ``random_game_edges(1000, 2, seed)`` minus a seeded
    sample of ``GAME_HELD_OUT`` held-out moves form the initial EDB
    (``edges``); the held-out moves (``candidates``) are what churn
    asserts.  Churn thus never adds a move outside the generated game, so
    the pre-ground rule set has the game's own dependency structure.
    :meth:`stream` alternates retracting a present move and asserting an
    absent one, so every operation is a real mutation and the EDB keeps
    its initial size.
    """

    def __init__(self, seed: int):
        moves = random_game_edges(GAME_NODES, GAME_OUT_DEGREE, seed=seed)
        self.nodes = sorted({node for edge in moves for node in edge})
        held_out = set(random.Random(seed + 1).sample(range(len(moves)), GAME_HELD_OUT))
        self.edges = [edge for index, edge in enumerate(moves) if index not in held_out]
        self.candidates = [edge for index, edge in enumerate(moves) if index in held_out]
        self.seed = seed

    def ground_rules(self) -> str:
        """The win rule pre-ground over every edge churn can touch."""
        return "\n".join(
            f"wins({x}) :- move({x}, {y}), not wins({y})."
            for x, y in self.edges + self.candidates
        )

    def facts(self) -> dict[str, list[Edge]]:
        return {"move": list(self.edges)}

    def stream(self, steps: int | None = None, salt: int = 0) -> Iterator[tuple[str, Edge]]:
        """The churn, made lazily: *steps* operations, or without end."""
        generator = random.Random(self.seed * 7919 + salt)
        present = list(self.edges)
        absent = list(self.candidates)
        for step in itertools.count() if steps is None else range(steps):
            pool = present if step % 2 == 0 else absent
            index = generator.randrange(len(pool))
            edge = pool[index]
            pool[index] = pool[-1]
            pool.pop()
            if step % 2 == 0:
                absent.append(edge)
                yield "retract", edge
            else:
                present.append(edge)
                yield "assert", edge


class Social:
    """``social_graph_stream(300, 100, 12, seed)``: a ground program the
    ``auto`` semantics resolves to ``stratified``, plus its churn stream
    over follow edges and mute flags."""

    def __init__(self, seed: int, steps: int):
        program, self.stream = social_graph_stream(
            SOCIAL_PEOPLE, extra_edges=100, back_edges=12, steps=steps, seed=seed
        )
        self.rules = str(Program(r for r in program if not r.is_fact))
        self.facts = [rule.head for rule in program if rule.is_fact]
