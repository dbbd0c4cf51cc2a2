#!/usr/bin/env python3
"""A live knowledge-base session: update the EDB, keep the model warm.

The deductive-database reading of the paper (Section 2.5) is a database
that evolves: facts arrive and are retracted while the rule set stays
fixed.  This example drives a :class:`repro.KnowledgeBase` through a game
season:

1. load the opening move graph and query who wins;
2. assert and retract moves and watch verdicts flip — each update
   maintains only the dependency-graph components the change reaches
   (the ``last_update`` stats show the reuse);
3. group a multi-move rebalance in a transactional batch;
4. explain a verdict against the live model.

Run with:  python examples/live_session.py
"""

from repro import EngineConfig, KnowledgeBase
from repro.workloads import layered_program


def main() -> None:
    # ------------------------------------------------------------------ #
    # 1. A session over the win-move rules, EDB loaded separately.
    # ------------------------------------------------------------------ #
    kb = KnowledgeBase("wins(X) :- move(X, Y), not wins(Y).")
    kb.load({"move": [("a", "b"), ("b", "a"), ("b", "c"), ("c", "d")]})

    print("== Opening position ==")
    print("winning positions:", sorted(row[0] for row in kb.query("wins")))
    print("drawn (undefined):", sorted(row[0] for row in kb.query("wins").undefined))

    # ------------------------------------------------------------------ #
    # 2. The board changes: d gets an escape move, c's win evaporates.
    # ------------------------------------------------------------------ #
    kb.assert_fact("move", "d", "e")
    print("\n== After move(d, e) is asserted ==")
    print("winning positions:", sorted(row[0] for row in kb.query("wins")))
    print("wins(c) verdict  :", kb.value_of("wins(c)").value)

    kb.retract_fact("move", "d", "e")
    print("after retraction :", sorted(row[0] for row in kb.query("wins")))

    # ------------------------------------------------------------------ #
    # 3. Batched updates are transactional and refresh once.
    # ------------------------------------------------------------------ #
    with kb.batch():
        kb.retract_fact("move", "b", "c")
        kb.assert_fact("move", "c", "b")
    print("\n== After the batched rebalance ==")
    print("winning positions:", sorted(row[0] for row in kb.query("wins")))
    print("drawn (undefined):", sorted(row[0] for row in kb.query("wins").undefined))

    # ------------------------------------------------------------------ #
    # 4. Explanations read the same live model.
    # ------------------------------------------------------------------ #
    print("\n== Why does c hold its verdict? ==")
    print(kb.explain("wins(c)").render())

    # ------------------------------------------------------------------ #
    # 5. Incremental maintenance touches only the components a change
    #    reaches; every other component keeps its frozen verdict.
    # ------------------------------------------------------------------ #
    tower = KnowledgeBase(
        layered_program(8, 40), config=EngineConfig(semantics="well-founded")
    )
    tower.solution
    tower.assert_fact("chain(7, 39)")
    tower.solution  # reads trigger the refresh; updates themselves are lazy
    stats = tower.last_update
    print("\n== Incremental refresh on an 8-layer tower ==")
    print(stats.describe())
    print(f"reuse: {stats.reuse_fraction:.0%} of components kept their frozen verdict")


if __name__ == "__main__":
    main()
