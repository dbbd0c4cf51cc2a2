"""Correctness oracles.  Each runs outside the timed region and returns a
list of error messages; an empty list means the answer is right.

* One-shot and final session states are compared with the monolithic
  alternating fixpoint, the paper's own construction.
* Per-operation session answers and HTTP reads are compared with models
  computed without ``repro`` at all: retrograde analysis of the win-move
  game (won = true, drawn = undefined, lost = false, which is the
  well-founded model of ``wins(X) :- move(X, Y), not wins(Y)``) and plain
  graph search for the social graph.
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import Iterable, Optional

from repro import EngineConfig, Program, Rule, alternating_fixpoint

Edge = tuple[str, str]

#: A model as (true atoms, undefined atoms).
Digest = tuple[frozenset, frozenset]


# --------------------------------------------------------------------- #
# Whole models against the monolithic alternating fixpoint
# --------------------------------------------------------------------- #
def digest(interpretation, base) -> Digest:
    """The model's true and undefined atoms."""
    return (
        frozenset(interpretation.true_atoms),
        interpretation.undefined_atoms(frozenset(base)),
    )


def reference_digest(program: Program) -> Digest:
    """The monolithic alternating fixpoint's model of *program*."""
    result = alternating_fixpoint(
        program, config=EngineConfig(engine="monolithic"), keep_stages=False
    )
    return frozenset(result.positive_fixpoint), result.undefined_atoms


def session_program(kb) -> Program:
    """A session's rules plus its current EDB, as one program."""
    return Program(list(kb.rules) + [Rule(atom) for atom in kb.facts()])


def compare_models(label: str, got: Digest, want: Digest) -> list[str]:
    errors = []
    for kind, mine, theirs in (("true", got[0], want[0]), ("undefined", got[1], want[1])):
        if mine != theirs:
            extra = sorted(str(a) for a in mine - theirs)[:3]
            missing = sorted(str(a) for a in theirs - mine)[:3]
            errors.append(
                f"{label}: {kind} atoms differ from the reference "
                f"(extra {extra}, missing {missing})"
            )
    return errors


# --------------------------------------------------------------------- #
# The win-move game
# --------------------------------------------------------------------- #
def game_values(edges: Iterable[Edge]) -> tuple[set[str], set[str]]:
    """Won and drawn positions of the game over *edges*, by retrograde
    analysis: sinks are lost, a position with a move to a lost position
    is won, one whose every move reaches a won position is lost."""
    successors: dict[str, int] = defaultdict(int)
    predecessors: dict[str, list[str]] = defaultdict(list)
    nodes: set[str] = set()
    for source, target in set(edges):
        successors[source] += 1
        predecessors[target].append(source)
        nodes.update((source, target))
    remaining = {node: successors[node] for node in nodes}
    won: set[str] = set()
    lost = {node for node in nodes if remaining[node] == 0}
    frontier = deque(lost)
    while frontier:
        node = frontier.popleft()
        for parent in predecessors[node]:
            if parent in won or parent in lost:
                continue
            if node in lost:
                won.add(parent)
                frontier.append(parent)
            else:
                remaining[parent] -= 1
                if remaining[parent] == 0:
                    lost.add(parent)
                    frontier.append(parent)
    return won, nodes - won - lost


def check_wins(label: str, edges: Iterable[Edge], true_rows, undefined_rows) -> list[str]:
    """``wins`` rows (1-tuples) against the game's won/drawn positions."""
    won, drawn = game_values(edges)
    errors = []
    for kind, rows, want in (("true", true_rows, won), ("undefined", undefined_rows, drawn)):
        got = {row[0] for row in rows}
        if got != want:
            errors.append(
                f"{label}: {kind} wins differ (extra {sorted(got - want)[:3]}, "
                f"missing {sorted(want - got)[:3]})"
            )
    return errors


# --------------------------------------------------------------------- #
# The social graph
# --------------------------------------------------------------------- #
class SocialMirror:
    """The social graph's EDB, kept beside the session, and the derived
    relations computed from it by graph search."""

    def __init__(self, facts):
        self.facts: set[tuple] = {
            (atom.predicate, *(term.value for term in atom.args)) for atom in facts
        }

    def apply(self, kind: str, atom) -> None:
        key = (atom.predicate, *(term.value for term in atom.args))
        if kind == "assert":
            self.facts.add(key)
        else:
            self.facts.discard(key)

    def relation(self, predicate: str) -> set[tuple]:
        arcs: dict[object, list[object]] = defaultdict(list)
        people, muted, reach = set(), set(), set()
        for fact in self.facts:
            if fact[0] in ("follows", "endorses"):
                arcs[fact[1]].append(fact[2])
            elif fact[0] == "person":
                people.add(fact[1])
            elif fact[0] == "muted":
                muted.add(fact[1])
            elif fact[0] == "seed":
                reach.add(fact[1])
        frontier = deque(reach)
        while frontier:
            for target in arcs[frontier.popleft()]:
                if target not in reach:
                    reach.add(target)
                    frontier.append(target)
        derived = {
            "reach": reach,
            "influencer": reach - muted,
            "isolated": people - reach,
        }
        return {(person,) for person in derived[predicate]}


def check_rows(label: str, got, want) -> list[str]:
    got = set(got)
    if got == want:
        return []
    return [
        f"{label}: rows differ (extra {sorted(got - want)[:3]}, "
        f"missing {sorted(want - got)[:3]})"
    ]


# --------------------------------------------------------------------- #
# HTTP responses against the model at their epoch
# --------------------------------------------------------------------- #
def check_http(
    initial_edges: list[Edge],
    writes: list[dict],
    reads: list[dict],
    first_epoch: Optional[int] = None,
) -> list[str]:
    """Check every response against the model of the epoch stamped on it.

    *writes* are ``{"op", "edge", "status", "body"}`` in the order they
    were sent, *reads* ``{"kind", "target", "status", "body"}`` where
    ``kind`` is ``"query"`` (``/query/wins?per_page=50``) or ``"ask"``
    (``/ask?q=wins(<target>)``).  Writes must succeed with ``changed:
    true`` and strictly increasing epochs; the model at epoch *e* is the
    initial EDB with every acknowledged write of epoch at most *e* applied
    in epoch order.  *first_epoch* is the epoch the server published at
    start (the smallest epoch a read may carry).
    """
    errors: list[str] = []
    acknowledged: list[tuple[int, str, Edge]] = []
    last_epoch = None
    for index, write in enumerate(writes):
        body = write.get("body") or {}
        if write["status"] != 200:
            errors.append(f"write {index}: HTTP {write['status']} {body}")
            continue
        epoch = body.get("epoch")
        if body.get("changed") is not True:
            errors.append(f"write {index}: changed is {body.get('changed')!r}, not true")
        if not isinstance(epoch, int) or (last_epoch is not None and epoch <= last_epoch):
            errors.append(f"write {index}: epoch {epoch!r} does not follow {last_epoch!r}")
            continue
        last_epoch = epoch
        acknowledged.append((epoch, write["op"], write["edge"]))

    models: dict[int, tuple[set[str], set[str]]] = {}

    def model_at(epoch: int) -> tuple[set[str], set[str]]:
        if epoch not in models:
            edges = set(initial_edges)
            for when, op, edge in acknowledged:
                if when > epoch:
                    break
                if op == "assert":
                    edges.add(edge)
                else:
                    edges.discard(edge)
            models[epoch] = game_values(edges)
        return models[epoch]

    newest = acknowledged[-1][0] if acknowledged else first_epoch
    for index, read in enumerate(reads):
        body = read.get("body") or {}
        if read["status"] != 200:
            errors.append(f"read {index}: HTTP {read['status']} {body}")
            continue
        epoch = body.get("epoch")
        if not isinstance(epoch, int) or (
            first_epoch is not None and not first_epoch <= epoch <= (newest or epoch)
        ):
            errors.append(f"read {index}: epoch {epoch!r} was never published")
            continue
        won, drawn = model_at(epoch)
        if read["kind"] == "query":
            rows = sorted(((node,) for node in won), key=repr)
            want = [list(row) for row in rows[:50]]
            total = body.get("pagination", {}).get("total")
            if body.get("rows") != want or total != len(won):
                errors.append(
                    f"read {index}: /query/wins at epoch {epoch} has "
                    f"{total} rows, want {len(won)} (or the first page differs)"
                )
        else:
            node = read["target"]
            want = "true" if node in won else "undefined" if node in drawn else "false"
            if body.get("verdict") != want:
                errors.append(
                    f"read {index}: wins({node}) at epoch {epoch} is "
                    f"{body.get('verdict')!r}, want {want!r}"
                )
    return errors
