"""Unit tests of the per-predicate model view every solution read uses."""

from __future__ import annotations

import random

from repro.datalog.atoms import Atom
from repro.datalog.terms import Constant
from repro.engine.view import ModelView, row_of
from repro.fixpoint.interpretations import TruthValue

TRUE, UNDEFINED, FALSE = TruthValue.TRUE, TruthValue.UNDEFINED, TruthValue.FALSE


def atom(predicate: str, *values: object) -> Atom:
    return Atom(predicate, tuple(Constant(value) for value in values))


def _state(view: ModelView, names) -> dict:
    """Everything a reader can see of *view*, per predicate."""
    found = {}
    for name in names:
        entry = view.predicate(name)
        found[name] = (
            entry.true_atoms,
            entry.undefined_atoms,
            entry.facts,
            entry.rows(TRUE),
            entry.rows(UNDEFINED),
            entry.order(TRUE),
            entry.order(UNDEFINED),
        )
    return found


class TestBuild:
    def test_groups_by_predicate_with_unwrapped_rows(self):
        view = ModelView.build(
            [atom("p", 1), atom("p", 2), atom("q", "a")], [atom("p", 3)], [atom("q", "a")]
        )
        p, q = view.predicate("p"), view.predicate("q")
        assert p.rows(TRUE) == {(1,), (2,)} and p.rows(UNDEFINED) == {(3,)}
        assert p.order(TRUE) == ((1,), (2,)) and p.facts == frozenset()
        # A predicate whose facts are its true atoms keeps one set for both.
        assert q.facts is q.true_atoms
        assert sorted(view) == ["p", "q"]
        assert view.predicate("missing").rows(TRUE) == frozenset()

    def test_value_of(self):
        view = ModelView.build([atom("p", 1)], [atom("p", 2)])
        entry = view.predicate("p")
        assert entry.value_of(atom("p", 1)) is TRUE
        assert entry.value_of(atom("p", 2)) is UNDEFINED
        assert entry.value_of(atom("p", 3)) is FALSE

    def test_unions(self):
        true_atoms = {atom("p", 1), atom("q", 2)}
        view = ModelView.build(true_atoms, [atom("r")], [atom("q", 2)])
        assert view.true_atoms() == true_atoms
        assert view.undefined_atoms() == {atom("r")}
        assert view.facts() == {atom("q", 2)}


class TestEvolve:
    def test_matches_a_rebuild_under_random_churn(self):
        rng = random.Random(7)
        universe = [atom(name, value) for name in "pqrs" for value in range(200)]
        verdicts = {a: rng.choice((TRUE, UNDEFINED, FALSE)) for a in universe}
        facts = {a for a in universe if verdicts[a] is TRUE and rng.random() < 0.5}

        def rebuilt() -> ModelView:
            return ModelView.build(
                [a for a in universe if verdicts[a] is TRUE],
                [a for a in universe if verdicts[a] is UNDEFINED],
                facts,
            )

        view = rebuilt()
        for name in "pq":  # derived rows and orders, carried or reset
            view.predicate(name).order(TRUE)
            view.predicate(name).order(UNDEFINED)
        for _ in range(200):
            moved = rng.sample(universe, rng.randint(1, 3))
            for a in moved:
                verdicts[a] = rng.choice((TRUE, UNDEFINED, FALSE))
                if verdicts[a] is not TRUE:
                    facts.discard(a)
                elif rng.random() < 0.5:
                    facts.add(a)
            # Extra atoms that did not move are allowed in the changes.
            moved += rng.sample(universe, 2)
            view = view.evolve((a, verdicts[a], a in facts) for a in moved)
            assert _state(view, "pqrs") == _state(rebuilt(), "pqrs")

    def test_unflipped_predicates_are_shared_and_derived_sets_carried(self):
        view = ModelView.build(
            [atom("p", value) for value in range(40)] + [atom("q", 1)],
            [atom("r", 1), atom("p", 50)],
        )
        before = view.predicate("p").order(TRUE)
        evolved = view.evolve(
            [(atom("p", 3), FALSE, False), (atom("p", 50), FALSE, False), (atom("q", 1), TRUE, False)]
        )
        assert evolved.predicate("q") is view.predicate("q")
        assert evolved.predicate("r") is view.predicate("r")
        moved = evolved.predicate("p")
        assert moved is not view.predicate("p")
        # Derived rows arrive patched; the moved set's page order is reset
        # and sorted again on first read; the rest stays lazy.
        true_rows, undefined_rows = moved._rows
        assert true_rows == {(value,) for value in range(40) if value != 3}
        assert moved._orders == [None, None]
        assert undefined_rows is None and moved.rows(UNDEFINED) == frozenset()
        assert moved.order(TRUE) == tuple(sorted(true_rows, key=repr))
        # The old view is intact.
        assert row_of(atom("p", 3)) in before and row_of(atom("p", 3)) not in moved.order(TRUE)
        assert view.predicate("p").order(TRUE) is before
        assert view.predicate("p").rows(UNDEFINED) == {(50,)}
        assert view.evolve([(atom("q", 1), TRUE, False)]) is view

    def test_an_order_of_a_set_that_did_not_move_is_kept(self):
        view = ModelView.build([atom("p", 1), atom("p", 2)], [atom("p", 3)])
        kept = view.predicate("p").order(TRUE)
        view.predicate("p").order(UNDEFINED)
        moved = view.evolve([(atom("p", 3), FALSE, False)]).predicate("p")
        assert moved._orders[0] is kept and moved._orders[1] is None
        assert moved.order(UNDEFINED) == ()

    def test_emptied_predicates_leave_the_view(self):
        view = ModelView.build([atom("p", 1)], [])
        evolved = view.evolve([(atom("p", 1), FALSE, False), (atom("n", 1), UNDEFINED, False)])
        assert list(evolved) == ["n"]
        assert evolved.predicate("p").rows(TRUE) == frozenset()
