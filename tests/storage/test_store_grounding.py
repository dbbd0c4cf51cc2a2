"""Grounding directly off a FactStore: equivalence and zero-copy probing."""

import pytest

from repro.core.alternating import alternating_fixpoint
from repro.core.context import build_context
from repro.datalog.grounding import relevant_ground, stream_relevant_ground
from repro.datalog.parser import parse_program
from repro.engine.solver import solve, solve_configured
from repro.config import EngineConfig
from repro.datalog.database import Database
from repro.semantics.horn import horn_minimum_model
from repro.storage import MemoryStore, SqliteStore

RULES = parse_program(
    """
    tc(X, Y) :- edge(X, Y).
    tc(X, Y) :- edge(X, Z), tc(Z, Y).
    blocked(X) :- node(X), not tc(a, X).
    """
)
TC_RULES = parse_program("tc(X, Y) :- edge(X, Y). tc(X, Y) :- edge(X, Z), tc(Z, Y).")
EDGES = [("a", "b"), ("b", "c"), ("c", "d")]
NODES = [("a",), ("b",), ("c",), ("d",), ("e",)]

LEGACY = parse_program(
    """
    edge(a, b). edge(b, c). edge(c, d).
    node(a). node(b). node(c). node(d). node(e).
    tc(X, Y) :- edge(X, Y).
    tc(X, Y) :- edge(X, Z), tc(Z, Y).
    blocked(X) :- node(X), not tc(a, X).
    """
)


@pytest.fixture(params=["memory", "sqlite"])
def store(request):
    backend = MemoryStore() if request.param == "memory" else SqliteStore(":memory:")
    backend.load({"edge": EDGES, "node": NODES})
    yield backend
    backend.close()


class TestGroundingEquivalence:
    def test_store_grounding_matches_legacy_attach(self, store):
        assert set(relevant_ground(RULES, store=store).rules) == set(
            relevant_ground(LEGACY).rules
        )

    def test_scan_matcher_accepts_store(self, store):
        assert set(relevant_ground(RULES, matcher="scan", store=store).rules) == set(
            relevant_ground(LEGACY, matcher="scan").rules
        )

    def test_store_is_not_polluted_by_derived_atoms(self, store):
        list(stream_relevant_ground(RULES, store=store))
        assert len(store) == len(EDGES) + len(NODES)
        assert store.signatures() == {("edge", 2), ("node", 1)}

    def test_repeated_runs_reuse_live_indexes(self):
        backend = MemoryStore()
        backend.load({"edge": EDGES, "node": NODES})
        first = set(stream_relevant_ground(RULES, store=backend))
        indexed = backend.relation("edge", 2).indexes
        assert indexed, "grounding should have built bound-position indexes"
        # The second run probes the same Relation objects (same indexes
        # dict identity) and produces the same rules.
        second = set(stream_relevant_ground(RULES, store=backend))
        assert backend.relation("edge", 2).indexes is indexed
        assert first == second

    def test_grounding_sees_store_updates_between_runs(self):
        backend = MemoryStore()
        backend.load({"edge": EDGES, "node": NODES})
        before = set(stream_relevant_ground(RULES, store=backend))
        backend.add("edge", "d", "e")
        after = set(stream_relevant_ground(RULES, store=backend))
        assert before < after

    def test_build_context_over_store(self, store):
        context = build_context(RULES, store=store)
        legacy = build_context(LEGACY)
        assert context.facts == legacy.facts
        assert context.base == legacy.base
        assert set(context.program) == set(legacy.program)


class TestSolveEquivalence:
    @pytest.mark.parametrize("semantics", ["well-founded", "stable", "stratified", "horn"])
    def test_models_identical_across_paths(self, store, semantics):
        if semantics == "horn":
            rules = TC_RULES
            legacy = Database.from_tuples({"edge": EDGES, "node": NODES}).attach(rules)
        else:
            rules = RULES
            legacy = LEGACY
        config = EngineConfig(semantics=semantics)
        via_store = solve_configured(rules, config, store=store)
        via_legacy = solve_configured(legacy, config)
        assert via_store.interpretation.true_atoms == via_legacy.interpretation.true_atoms
        assert via_store.interpretation.false_atoms == via_legacy.interpretation.false_atoms
        assert via_store.base == via_legacy.base

    @pytest.mark.parametrize("semantics", ["auto", "horn"])
    def test_definite_rules_solve_from_the_envelope(self, store, semantics):
        legacy = Database.from_tuples({"edge": EDGES, "node": NODES}).attach(TC_RULES)
        config = EngineConfig(semantics=semantics)
        via_store = solve_configured(TC_RULES, config, store=store)
        alone = solve_configured(legacy, config)
        horn = horn_minimum_model(build_context(legacy))
        afp = alternating_fixpoint(legacy)
        for solution in (via_store, alone):
            assert solution.semantics == "horn" and solution.context is None
            assert solution.interpretation == horn.interpretation == afp.model
            assert solution.base == horn.context.base == afp.context.base
        # The store's facts are in the model and, as fact rules, in the
        # solution's program, which grounds to the same context.
        assert {("edge", 2), ("node", 1)} <= {(a.predicate, a.arity) for a in via_store.base}
        assert via_store.program.fact_atoms() == legacy.fact_atoms()
        assert build_context(via_store.program).base == via_store.base

    def test_database_backed_solve_uses_its_store(self):
        database = Database.from_tuples({"edge": EDGES, "node": NODES})
        solution = solve(RULES, database=database)
        oracle = solve(LEGACY)
        assert solution.interpretation.true_atoms == oracle.interpretation.true_atoms
        assert solution.base == oracle.base
        # The grounder probed the database's live store: its relations now
        # carry the bound-position indexes the join built.
        assert database.store.relation("edge", 2).indexes

    def test_database_and_store_together_rejected(self):
        from repro.exceptions import EvaluationError

        with pytest.raises(EvaluationError):
            solve(RULES, database=Database(), store=MemoryStore())

    def test_config_store_spec_opens_backend(self, tmp_path):
        path = tmp_path / "solve.db"
        backend = SqliteStore(path)
        backend.load({"edge": EDGES, "node": NODES})
        backend.close()
        config = EngineConfig(store=f"sqlite:{path}")
        solution = solve_configured(RULES, config)
        oracle = solve_configured(LEGACY, EngineConfig())
        assert solution.interpretation.true_atoms == oracle.interpretation.true_atoms
