"""Experiment E14 — scan versus indexed semi-naive grounding.

Since PR 1 the *ground* fixpoints are semi-naive and indexed, so on
non-ground workloads the runtime is dominated by ``relevant_ground``.  The
indexed matcher (``repro.datalog.joins``) replaces the naive envelope
fixpoint + per-conjunct linear scans of the original matcher with
delta-driven grounding over lazily built argument-position hash indexes
and greedy join ordering.  This benchmark sweeps the three non-ground
workloads the ISSUE names:

* **transitive closure** on linear chains — the deep-recursion worst case
  for the scan matcher (one envelope round per path length, each round a
  full re-scan): the asymptotic gap, ≥5× required already at moderate
  sizes and measured via a wall-clock budget at 300 nodes;
* **same-generation** on binary trees — a three-way join whose middle
  conjunct explodes without index probes and join reordering;
* **win–move** on random game graphs — join-light (one positive conjunct,
  envelope converges in one round), included as the no-regression guard:
  indexes must not cost anything when there is nothing to join.

Every comparison asserts the two matchers produce identical ground rule
sets, so a timing run doubles as a differential check.

Run with ``pytest benchmarks/bench_grounding_speedup.py -s``.
"""

import time

import pytest

from _metrics import emit
from _smoke import trim
from repro.datalog.grounding import relevant_ground
from repro.exceptions import GroundingTimeout
from repro.games import binary_tree_edges, chain_edges, random_game_edges, win_move_program
from repro.resilience import Budget, metered
from repro.workloads import same_generation_program, transitive_closure_program

CHAIN_SIZES = trim([20, 40])
TREE_DEPTHS = trim([3, 4])
GAME_SIZES = trim([400, 1200])
# The acceptance-criterion size: the scan matcher needs tens of minutes
# here, so it runs under a wall-clock budget (see below).
ACCEPTANCE_CHAIN_SIZE = 300
REPEAT = 3


def _best_time(function) -> float:
    best = float("inf")
    for _ in range(REPEAT):
        start = time.perf_counter()
        function()
        best = min(best, time.perf_counter() - start)
    return best


def _compare(program):
    """Return (scan seconds, indexed seconds) after asserting the two
    matchers ground the program to the identical rule set."""
    indexed_rules = set(relevant_ground(program, matcher="indexed").rules)
    scan_rules = set(relevant_ground(program, matcher="scan").rules)
    assert indexed_rules == scan_rules
    scan = _best_time(lambda: relevant_ground(program, matcher="scan"))
    indexed = _best_time(lambda: relevant_ground(program, matcher="indexed"))
    return scan, indexed


@pytest.mark.repro("E14")
def test_transitive_closure_chain_speedup(report):
    """Chains make the scan matcher quadratic twice over: ~n envelope
    rounds, each re-matching the rules against all ~n²/2 derived atoms."""
    rows = []
    timings = {}
    for size in CHAIN_SIZES:
        program = transitive_closure_program(chain_edges(size))
        scan, indexed = _compare(program)
        timings[size] = (scan, indexed)
        emit(
            "grounding_speedup",
            workload=f"transitive_closure_chain:{size}",
            sizes={"nodes": size},
            timings={"scan": scan, "indexed": indexed},
            speedups={"indexed_over_scan": scan / indexed},
        )
        rows.append((size, f"scan {scan * 1000:9.2f} ms", f"indexed {indexed * 1000:9.2f} ms",
                     f"speedup {scan / indexed:7.1f}x"))
    report("transitive closure chains: scan vs indexed grounding", rows)
    scan, indexed = timings[CHAIN_SIZES[-1]]
    assert indexed < scan, (
        f"indexed grounding ({indexed:.4f}s) must beat the scan matcher "
        f"({scan:.4f}s) on the {CHAIN_SIZES[-1]}-node chain"
    )


@pytest.mark.repro("E14")
@pytest.mark.benchslow
def test_transitive_closure_chain300_acceptance(report):
    """The acceptance criterion: ≥5× on a ≥300-node linear chain.

    The scan matcher cannot finish this size in CI time (it needs tens of
    minutes), so it runs under a :class:`~repro.resilience.Budget` deadline
    of 5× the indexed time (plus margin): either it finishes and the ratio
    is asserted directly, or it times out and the elapsed time — a lower
    bound on its true cost — already proves the 5× gap.
    """
    program = transitive_closure_program(chain_edges(ACCEPTANCE_CHAIN_SIZE))
    start = time.perf_counter()
    grounded = relevant_ground(program, matcher="indexed")
    indexed = time.perf_counter() - start
    budget = max(5 * indexed * 1.5, 2.0)
    start = time.perf_counter()
    try:
        with metered(Budget(max_seconds=budget)):
            relevant_ground(program, matcher="scan")
        scan = time.perf_counter() - start
        timed_out = False
    except GroundingTimeout as timeout:
        scan = timeout.elapsed
        timed_out = True
    report(
        f"chain-{ACCEPTANCE_CHAIN_SIZE} transitive closure",
        [
            (f"ground rules {len(grounded)}",),
            (f"indexed {indexed:8.2f} s",),
            (f"scan    {scan:8.2f} s" + ("  (aborted at budget)" if timed_out else ""),),
            (f"speedup ≥ {scan / indexed:6.1f}x",),
        ],
    )
    emit(
        "grounding_speedup",
        workload=f"transitive_closure_chain:{ACCEPTANCE_CHAIN_SIZE}",
        sizes={"nodes": ACCEPTANCE_CHAIN_SIZE, "ground_rules": len(grounded)},
        timings={"scan": scan, "indexed": indexed},
        speedups={"indexed_over_scan": scan / indexed},
        extra={"scan_aborted_at_budget": timed_out},
    )
    assert scan >= 5 * indexed, (
        f"indexed grounding must be ≥5× faster on the "
        f"{ACCEPTANCE_CHAIN_SIZE}-node chain: indexed {indexed:.2f}s, "
        f"scan {'≥' if timed_out else ''}{scan:.2f}s"
    )


@pytest.mark.repro("E14")
def test_same_generation_speedup(report):
    """Same-generation's recursive rule joins two ``parent`` conjuncts
    around the ``sg`` delta; without argument indexes the middle conjunct
    degenerates into a full cross product per candidate."""
    rows = []
    timings = {}
    for depth in TREE_DEPTHS:
        program = same_generation_program(binary_tree_edges(depth))
        scan, indexed = _compare(program)
        timings[depth] = (scan, indexed)
        emit(
            "grounding_speedup",
            workload=f"same_generation_tree:{depth}",
            sizes={"depth": depth},
            timings={"scan": scan, "indexed": indexed},
            speedups={"indexed_over_scan": scan / indexed},
        )
        rows.append((f"depth {depth}", f"scan {scan * 1000:9.2f} ms",
                     f"indexed {indexed * 1000:9.2f} ms", f"speedup {scan / indexed:7.1f}x"))
    report("same-generation on binary trees: scan vs indexed grounding", rows)
    scan, indexed = timings[TREE_DEPTHS[-1]]
    assert indexed < scan, (
        f"indexed grounding ({indexed:.4f}s) must beat the scan matcher "
        f"({scan:.4f}s) on the depth-{TREE_DEPTHS[-1]} same-generation tree"
    )


@pytest.mark.repro("E14")
def test_win_move_no_regression(report):
    """Win–move grounds in a single envelope round with a one-conjunct
    body, so there is nothing for hash joins to win — the assertion is the
    other direction: the index machinery must not make join-light
    workloads meaningfully slower (the indexed path still saves the scan
    matcher's separate re-instantiation pass)."""
    rows = []
    timings = {}
    for size in GAME_SIZES:
        program = win_move_program(random_game_edges(size, out_degree=4, seed=size))
        scan, indexed = _compare(program)
        timings[size] = (scan, indexed)
        emit(
            "grounding_speedup",
            workload=f"win_move_random:{size}",
            sizes={"positions": size},
            timings={"scan": scan, "indexed": indexed},
            speedups={"indexed_over_scan": scan / indexed},
        )
        rows.append((size, f"scan {scan * 1000:9.2f} ms", f"indexed {indexed * 1000:9.2f} ms",
                     f"ratio {indexed / scan:6.2f}"))
    report("win-move random games: scan vs indexed grounding", rows)
    scan, indexed = timings[GAME_SIZES[-1]]
    assert indexed <= scan * 1.25, (
        f"indexed grounding ({indexed:.4f}s) regressed more than 25% against "
        f"the scan matcher ({scan:.4f}s) on the join-light win-move workload"
    )


@pytest.mark.repro("E14")
@pytest.mark.parametrize("matcher", ["indexed", "scan"])
def test_timed_grounding_chain40(benchmark, matcher):
    """pytest-benchmark recording for EXPERIMENTS.md-style comparison."""
    program = transitive_closure_program(chain_edges(40))
    grounded = benchmark(lambda: relevant_ground(program, matcher=matcher))
    assert grounded.is_ground
