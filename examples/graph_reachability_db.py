#!/usr/bin/env python3
"""Deductive-database example: graph queries over an EDB (Example 2.1).

The paper motivates logic programs as query languages over an extensional
database.  This example loads a small flight network as an EDB, defines the
concepts of Example 2.1 (paths, their complement, sources) as IDB rules,
and answers the example queries — including the complement of transitive
closure, which needs the well-founded / stratified semantics and famously
misbehaves under the inflationary semantics (Example 2.2).

Run with:  python examples/graph_reachability_db.py
"""

from repro.datalog import Program, parse_program
from repro.engine import answers, ask, solve
from repro.semantics import compare_semantics
from repro.datalog.atoms import atom
from repro.storage import MemoryStore


FLIGHTS = [
    ("lisbon", "madrid"),
    ("madrid", "paris"),
    ("paris", "berlin"),
    ("berlin", "warsaw"),
    ("paris", "rome"),
    ("rome", "athens"),
    ("athens", "rome"),       # a cycle: rome <-> athens
    ("reykjavik", "oslo"),    # a separate component
]

RULES = """
% Example 2.1's concepts over an edge relation e/2.
node(X) :- e(X, Y).
node(Y) :- e(X, Y).

p(X, Y)  :- e(X, Y).                         % there is a path from X to Y
p(X, Y)  :- e(X, Z), p(Z, Y).
np(X, Y) :- node(X), node(Y), not p(X, Y).   % there is NO path from X to Y
hasin(Y) :- e(X, Y).
s(X)     :- node(X), not hasin(X).           % X is a source (no incoming edges)
"""


def main() -> None:
    store = MemoryStore()
    store.load({"e": FLIGHTS})
    rules = parse_program(RULES)
    solution = solve(rules, store=store)
    # The rules are stratified, so their well-founded model is total and is
    # the perfect model: auto computes it on the compiled kernel.
    print("semantics auto ran:", solution.semantics,
          "(the well-founded model; on these stratified rules, the perfect model)")
    print()

    # -- Example 2.1's sample queries ----------------------------------- #
    print("Is there a path from lisbon to warsaw?",
          ask(solution, "p(lisbon, warsaw)").value)
    print("Is there a path from warsaw to lisbon?",
          ask(solution, "p(warsaw, lisbon)").value)

    reachable_from_lisbon = sorted(a["Y"] for a in answers(solution, "p(lisbon, Y)"))
    print("Everything reachable from lisbon:", reachable_from_lisbon)

    sources = sorted(a["X"] for a in answers(solution, "s(X)"))
    print("Sources (no incoming flights):", sources)

    # "What nodes have paths to berlin, but not to rome?"
    to_berlin_not_rome = sorted(
        a["X"] for a in answers(solution, "p(X, berlin), np(X, rome)")
    )
    print("Cities reaching berlin but not rome:", to_berlin_not_rome)

    # "Is there a path from any source to athens?"
    from_sources = sorted(a["X"] for a in answers(solution, "p(X, athens), s(X)"))
    print("Sources reaching athens:", from_sources)
    print()

    # -- Example 2.2: the complement of transitive closure -------------- #
    print("== np (complement of reachability) under different semantics ==")
    program = Program.union(store.as_program(), rules)
    comparison = compare_semantics(program, enumerate_stable=False)
    probes = [
        atom("np", "rome", "lisbon"),      # genuinely unreachable
        atom("np", "lisbon", "rome"),      # reachable, so np must be false
        atom("np", "rome", "rome"),        # on the cycle: reachable from itself
    ]
    header = f"{'atom':28s} {'well-founded':>14s} {'stratified':>12s} {'fitting':>10s} {'inflationary':>14s}"
    print(header)
    for probe in probes:
        verdicts = comparison.verdicts_for(probe)
        print(
            f"{str(probe):28s} {verdicts['well_founded']:>14s} "
            f"{verdicts['stratified']:>12s} {verdicts['fitting']:>10s} "
            f"{verdicts['inflationary']:>14s}"
        )
    print()
    print("Note how the inflationary semantics claims np for *reachable* pairs")
    print("(it fires the negation in round one, before p has been computed),")
    print("and how Fitting cannot decide pairs involving the rome/athens cycle.")


if __name__ == "__main__":
    main()
