"""Shared fixtures: the paper's worked examples as ready-made programs,
and the session engine's full solve as a one-shot evaluator."""

from __future__ import annotations

import pytest

from repro.datalog import parse_program
from repro.datalog.rules import Program
from repro.games import figure4a_edges, figure4b_edges, figure4c_edges, win_move_program
from repro.obs import TraceRecorder
from repro.session import IncrementalEngine


EXAMPLE_5_1_TEXT = """
% Example 5.1 of the paper (propositional rendering of p{a..i}).
p_a :- p_c, not p_b.
p_b :- not p_a.
p_c.
p_d :- p_e, not p_f.
p_d :- p_f, not p_g.
p_d :- p_h.
p_e :- p_d.
p_f :- p_e.
p_f :- not p_c.
p_i :- p_c, not p_d.
"""

EXAMPLE_3_1_TEXT = """
% Example 3.1 of the paper.
p :- q.
p :- r.
q :- not r.
r :- not q.
"""

WIN_MOVE_TEXT = """
move(a, b). move(b, a). move(b, c). move(c, d).
wins(X) :- move(X, Y), not wins(Y).
"""

NTC_TEXT = """
% Example 2.2: complement of transitive closure over a 2-cycle plus an
% isolated third node.
node(1). node(2). node(3).
edge(1, 2). edge(2, 1).
tc(X, Y) :- edge(X, Y).
tc(X, Y) :- edge(X, Z), tc(Z, Y).
ntc(X, Y) :- node(X), node(Y), not tc(X, Y).
"""


@pytest.fixture
def example_5_1():
    return parse_program(EXAMPLE_5_1_TEXT)


@pytest.fixture
def example_3_1():
    return parse_program(EXAMPLE_3_1_TEXT)


@pytest.fixture
def win_move_4b():
    return parse_program(WIN_MOVE_TEXT)


@pytest.fixture
def ntc_program():
    return parse_program(NTC_TEXT)


@pytest.fixture
def figure4_programs():
    return {
        "a": win_move_program(figure4a_edges()),
        "b": win_move_program(figure4b_edges()),
        "c": win_move_program(figure4c_edges()),
    }


class SessionSolve:
    """A session engine's full solve, read back the way a caller reads it:
    the rules go to an :class:`IncrementalEngine`, the facts to its full
    ``refresh``, and every component to ``solve_component``.  The model and
    base come from the engine; the per-component log comes from its
    recorder — one ``component`` span per component (``components`` holds
    their attributes) and the ``components.<method>`` counters."""

    def __init__(self, program: Program):
        self.recorder = TraceRecorder()
        engine = IncrementalEngine(
            Program(rule for rule in program if not rule.is_fact), recorder=self.recorder
        )
        engine.refresh(frozenset(rule.head for rule in program.facts()))
        self.model = engine.model
        self.base = engine.base
        self.components = [
            span.attributes for _, span in self.recorder.walk() if span.name == "component"
        ]

    @property
    def is_total(self) -> bool:
        return self.model.is_total_over(self.base)

    @property
    def undefined_atoms(self) -> frozenset:
        return self.model.undefined_atoms(self.base)

    def method_counts(self) -> dict[str, int]:
        totals = self.recorder.counter_totals()
        return {
            method: int(totals[f"components.{method}"])
            for method in ("horn", "stratified", "alternating")
            if f"components.{method}" in totals
        }


@pytest.fixture(scope="session")
def session_full_solve():
    """The session engine's full solve (session-scoped, so Hypothesis
    tests may take it)."""
    return SessionSolve
