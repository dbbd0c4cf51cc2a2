"""Experiment E17 — shared FactStore grounding versus per-run rebuild.

Before the storage redesign every grounding run copied the whole EDB into
a fresh ``RelationStore`` and rebuilt its bound-position hash indexes from
scratch.  With the :class:`~repro.storage.FactStore` protocol the grounder
probes the live store in place: the EDB rows are never copied, and the
indexes one run builds survive into the next.  This benchmark times the
two paths on the ISSUE's workloads:

* **chain-40 transitive closure** — derivation-heavy (the overlay of
  derived atoms dwarfs the 40-row EDB), so shared storage must hold
  *parity*: the split-relation probe indirection may not cost anything;
* **layered reachability** — a bulk-EDB workload (thousands of edge
  facts, a thin derived relation) where skipping the per-run re-insert
  and re-index of the fact base is a measurable win.

It also reports the :class:`~repro.storage.SqliteStore` timing split on
the same workloads (durability has a price; the point is that it is a
constant factor, not a blow-up), and every comparison asserts the three
paths ground to the identical rule set — a timing run doubles as a
differential check.  The chain's parity is decided on the median ratio
of order-alternating pairs of three-run batches (``_paired.py``): a chain
run takes tens of milliseconds, and one slow stretch on a shared machine
decides a comparison of two best-of-5 minima.

Run with ``pytest benchmarks/bench_storage.py -s``.
"""

import time

import pytest

from _metrics import emit
from _paired import paired_ratios
from _smoke import trim
from repro.datalog.grounding import stream_relevant_ground
from repro.datalog.parser import parse_program
from repro.datalog.rules import Program
from repro.games import chain_edges
from repro.storage import MemoryStore, SqliteStore
from repro.workloads import transitive_closure_program

REPEAT = 5
#: Shared-store grounding must be no slower than the per-run rebuild;
#: the margin absorbs CI timer noise on the parity-shaped workloads.
PARITY_MARGIN = 1.25
#: Order-alternating pairs of short batches deciding the chain's parity.
PARITY_PAIRS = 31
PARITY_BATCH = 3

CHAIN_SIZES = trim([40])
LAYERED_SHAPES = trim([(20, 100)])


def _best(function, repeat: int = REPEAT) -> float:
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        function()
        best = min(best, time.perf_counter() - start)
    return best


def _split(program: Program) -> tuple[Program, list]:
    rules = Program(rule for rule in program if not rule.is_fact)
    facts = [rule.head for rule in program.facts()]
    return rules, facts


def _layered_reachability(layers: int, width: int) -> Program:
    """A layered DAG (bulk EDB) with a thin derived reachability relation."""
    lines = ["reach(X) :- src(X).", "reach(Y) :- reach(X), edge(X, Y).", "src(n0_0)."]
    for layer in range(layers - 1):
        for i in range(width):
            lines.append(f"edge(n{layer}_{i}, n{layer + 1}_{i}).")
            lines.append(f"edge(n{layer}_{i}, n{layer + 1}_{(i + 1) % width}).")
    return parse_program("\n".join(lines))


def _compare(program: Program, paired: bool = False):
    """Time the legacy per-run rebuild against grounding off a shared
    MemoryStore and a SqliteStore, asserting identical rule sets.

    Returns the best-of timings of the three paths and, when *paired*, the
    shared-over-rebuild :func:`~_paired.paired_ratios` (``None``
    otherwise)."""
    rules, facts = _split(program)

    memory = MemoryStore()
    for fact in facts:
        memory.add_atom(fact)
    durable = SqliteStore(":memory:")
    for fact in facts:
        durable.add_atom(fact)

    legacy_rules = set(stream_relevant_ground(program))
    shared_rules = set(stream_relevant_ground(rules, store=memory))  # warms the indexes
    sqlite_rules = set(stream_relevant_ground(rules, store=durable))
    assert shared_rules == legacy_rules
    assert sqlite_rules == legacy_rules

    def rebuild():
        return list(stream_relevant_ground(program))

    def shared_store():
        return list(stream_relevant_ground(rules, store=memory))

    legacy = _best(rebuild)
    shared = _best(shared_store)
    sqlite = _best(lambda: list(stream_relevant_ground(rules, store=durable)), repeat=3)
    durable.close()
    ratios = None
    if paired:
        ratios = paired_ratios(rebuild, shared_store, pairs=PARITY_PAIRS, batch=PARITY_BATCH)
    return legacy, shared, sqlite, ratios


@pytest.mark.repro("E17")
def test_chain_transitive_closure_parity(report):
    """Derivation-dominated workload: the shared store must cost nothing."""
    rows = []
    for size in CHAIN_SIZES:
        program = transitive_closure_program(chain_edges(size))
        legacy, shared, sqlite, paired = _compare(program, paired=size == CHAIN_SIZES[-1])
        emit(
            "storage",
            workload=f"transitive_closure_chain:{size}",
            sizes={"nodes": size},
            timings={"rebuild": legacy, "shared_memory": shared, "sqlite": sqlite},
            speedups={"shared_over_rebuild": legacy / shared},
        )
        rows.append(
            (
                f"chain-{size}",
                f"rebuild {legacy * 1000:9.2f} ms",
                f"shared {shared * 1000:9.2f} ms",
                f"sqlite {sqlite * 1000:9.2f} ms",
                f"ratio {legacy / shared:5.2f}x",
            )
        )
    rows.append((f"chain-{CHAIN_SIZES[-1]} shared / rebuild", paired.describe()))
    report("transitive closure: per-run rebuild vs shared FactStore", rows)
    assert paired.median <= PARITY_MARGIN, (
        f"shared-store grounding regressed on chain-{CHAIN_SIZES[-1]}: {paired.describe()}"
    )


@pytest.mark.repro("E17")
def test_layered_bulk_edb(report):
    """Bulk-EDB workload: skipping the per-run fact re-index must pay."""
    rows = []
    timings = {}
    for layers, width in LAYERED_SHAPES:
        program = _layered_reachability(layers, width)
        legacy, shared, sqlite, _ = _compare(program)
        timings[(layers, width)] = (legacy, shared)
        emit(
            "storage",
            workload=f"layered_reachability:{layers}x{width}",
            sizes={"layers": layers, "width": width},
            timings={"rebuild": legacy, "shared_memory": shared, "sqlite": sqlite},
            speedups={"shared_over_rebuild": legacy / shared},
        )
        rows.append(
            (
                f"layered {layers}x{width}",
                f"rebuild {legacy * 1000:9.2f} ms",
                f"shared {shared * 1000:9.2f} ms",
                f"sqlite {sqlite * 1000:9.2f} ms",
                f"ratio {legacy / shared:5.2f}x",
            )
        )
    report("layered reachability (bulk EDB): rebuild vs shared FactStore", rows)
    legacy, shared = timings[LAYERED_SHAPES[-1]]
    assert shared <= legacy * PARITY_MARGIN, (
        f"shared-store grounding regressed on the layered workload: "
        f"{shared * 1000:.2f} ms vs {legacy * 1000:.2f} ms rebuild"
    )


@pytest.mark.repro("E17")
def test_models_identical_across_storage_paths():
    """The acceptance differential: MemoryStore, SqliteStore and the legacy
    attached-facts path produce byte-identical well-founded models."""
    from repro.config import EngineConfig
    from repro.engine.solver import solve_configured

    program = transitive_closure_program(chain_edges(12))
    rules, facts = _split(program)
    config = EngineConfig(semantics="well-founded")

    legacy = solve_configured(program, config)
    outcomes = [(legacy.interpretation.true_atoms, legacy.interpretation.false_atoms, legacy.base)]
    for backend in (MemoryStore(), SqliteStore(":memory:")):
        for fact in facts:
            backend.add_atom(fact)
        solution = solve_configured(rules, config, store=backend)
        outcomes.append(
            (solution.interpretation.true_atoms, solution.interpretation.false_atoms, solution.base)
        )
        backend.close()
    assert outcomes[0] == outcomes[1] == outcomes[2]
