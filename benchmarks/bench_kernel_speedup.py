"""Compiled kernel on the acceptance workloads.

The compiled kernel (:mod:`repro.kernel`) interns the ground atom universe
into dense integer ids once, lowers rules into flat ``array('i')``
segments, and evaluates with Dowling–Gallier counters over a single
``bytearray`` truth vector — the per-component dispatch of
:func:`repro.core.modular.solve_component`, with no per-inference objects
(no ``Atom`` hashing, no frozensets per component, no pointer chasing
through rule objects).

The IR is cached on the ``GroundContext``, so repeated evaluation of one
grounding compiles once: the timings here are the evaluation with a warm
IR cache, and the one-off compile is timed and emitted separately.  A
one-shot ``solve`` pays both; a session compiles nothing, since it
maintains its model over atom objects (:mod:`repro.session.incremental`).

Every workload asserts the partial models are **byte-identical** between
the kernel and the monolithic alternating fixpoint before any timing is
trusted, and the per-atom memory footprint of the kernel state is
measured against the object-level model representation.  On the layered
workload the kernel must beat the monolithic fixpoint by ≥20×.

Run with ``pytest benchmarks/bench_kernel_speedup.py -s``.
"""

import sys
import time

import pytest

from _metrics import emit
from _smoke import SMOKE
from repro.core.alternating import alternating_fixpoint
from repro.core.context import build_context
from repro.games.graphs import chain_edges, random_game_edges
from repro.games.winmove import win_move_program
from repro.kernel import get_kernel, kernel_model
from repro.obs import TraceRecorder
from repro.workloads import layered_program, random_propositional_program

REPEAT = 3

# (name, program factory); smoke mode trims every workload.
if SMOKE:
    WORKLOADS = [
        ("layered:4x60", lambda: layered_program(4, 60)),
        ("win_move:chain:400", lambda: win_move_program(chain_edges(400))),
        (
            "win_move:random_game:300",
            lambda: win_move_program(random_game_edges(300, out_degree=3, seed=7)),
        ),
        ("random_prop:40x120", lambda: random_propositional_program(40, 120, seed=3)),
    ]
else:
    WORKLOADS = [
        ("layered:12x200", lambda: layered_program(12, 200)),
        ("win_move:chain:2000", lambda: win_move_program(chain_edges(2000))),
        (
            "win_move:random_game:1000",
            lambda: win_move_program(random_game_edges(1000, out_degree=3, seed=7)),
        ),
        ("random_prop:80x240", lambda: random_propositional_program(80, 240, seed=3)),
    ]


def _best_time(function) -> float:
    best = float("inf")
    for _ in range(REPEAT):
        start = time.perf_counter()
        function()
        best = min(best, time.perf_counter() - start)
    return best


def _render(true_atoms, false_atoms) -> bytes:
    """A canonical byte serialisation of a partial model."""
    lines = sorted(str(atom) for atom in true_atoms)
    lines.extend(sorted(f"not {atom}" for atom in false_atoms))
    return "\n".join(lines).encode("utf-8")


def _assert_byte_identical(context):
    """Kernel and monolithic AFP models, byte for byte.  Returns the
    kernel's model."""
    kernel = kernel_model(context)
    monolithic = alternating_fixpoint(context, keep_stages=False)
    assert _render(kernel.true_atoms, kernel.false_atoms) == _render(
        monolithic.positive_fixpoint, monolithic.negative_fixpoint.atoms
    ), "well-founded models diverge between kernel and monolithic"
    return kernel


def _method_counts(context) -> dict:
    """Components per solving method, from one traced kernel run's
    ``components.*`` counters."""
    recorder = TraceRecorder()
    kernel_model(context, recorder)
    totals = recorder.counter_totals()
    return {
        method: int(totals[f"components.{method}"])
        for method in ("horn", "stratified", "alternating")
        if f"components.{method}" in totals
    }


def _object_model_bytes(model) -> int:
    """Rough footprint of the object-level truth state: the two model sets
    plus every Atom object (with its args tuple) they reference.  Shallow
    per-atom payloads (predicate/argument strings are shared via interning
    in practice) — a deliberately conservative lower bound."""
    total = sys.getsizeof(model.true_atoms) + sys.getsizeof(model.false_atoms)
    for atom in model.true_atoms | model.false_atoms:
        total += sys.getsizeof(atom) + sys.getsizeof(atom.args)
    return total


@pytest.mark.repro("E16")
@pytest.mark.parametrize(
    ("workload", "factory"), WORKLOADS, ids=[name for name, _ in WORKLOADS]
)
def test_kernel_workload(report, workload, factory):
    """Kernel models byte-identical to the monolithic fixpoint, and a
    per-atom memory drop against the object model; timings reported."""
    context = build_context(factory())

    compile_start = time.perf_counter()
    compiled = get_kernel(context)
    compile_seconds = time.perf_counter() - compile_start

    model = _assert_byte_identical(context)
    kernel = _best_time(lambda: kernel_model(context))

    stats = compiled.statistics()
    atoms = max(1, stats["atoms"])
    # Kernel truth state: one byte per atom; the IR arrays are the
    # compile-once cost, reported separately per atom for context.
    kernel_state_per_atom = 1.0
    ir_bytes_per_atom = stats["bytes"] / atoms
    object_bytes = _object_model_bytes(model)
    object_per_atom = object_bytes / atoms

    report(
        f"{workload}: compiled kernel WFS",
        [
            (f"atoms {stats['atoms']}, rules {stats['rules']}, components {stats['components']}",),
            (f"kernel  {kernel * 1000:9.2f} ms  (warm IR cache)",),
            (f"compile {compile_seconds * 1000:9.2f} ms  (once per grounding)",),
            (
                f"memory/atom: truth {kernel_state_per_atom:.0f} B + IR {ir_bytes_per_atom:.0f} B"
                f"  vs object model {object_per_atom:.0f} B",
            ),
        ],
    )
    emit(
        "kernel",
        workload=workload,
        sizes={
            "atoms": stats["atoms"],
            "rules": stats["rules"],
            "components": stats["components"],
            "body_entries": stats["body_entries"],
        },
        timings={"kernel": kernel, "kernel_compile": compile_seconds},
        extra={
            "methods": _method_counts(context),
            "memory_per_atom_bytes": {
                "kernel_truth": round(kernel_state_per_atom, 2),
                "kernel_ir": round(ir_bytes_per_atom, 2),
                "object_model": round(object_per_atom, 2),
                "reduction_vs_object": round(
                    object_per_atom / (kernel_state_per_atom + ir_bytes_per_atom), 2
                ),
            },
            "models_byte_identical": True,
        },
    )
    assert kernel_state_per_atom + ir_bytes_per_atom < object_per_atom, (
        "kernel per-atom footprint must undercut the object model: "
        f"{kernel_state_per_atom + ir_bytes_per_atom:.1f} B vs {object_per_atom:.1f} B"
    )


@pytest.mark.repro("E16")
def test_kernel_vs_monolithic(report):
    """Against the monolithic alternating fixpoint the kernel compounds the
    component dispatch win with the flat-array win."""
    layers, size = (4, 60) if SMOKE else (12, 200)
    context = build_context(layered_program(layers, size))
    get_kernel(context)
    _assert_byte_identical(context)
    kernel = _best_time(lambda: kernel_model(context))
    monolithic = _best_time(lambda: alternating_fixpoint(context, keep_stages=False))
    report(
        f"layered {layers}x{size}: kernel vs monolithic AFP",
        [
            (f"kernel     {kernel * 1000:9.2f} ms",),
            (f"monolithic {monolithic * 1000:9.2f} ms",),
            (f"speedup    {monolithic / kernel:9.1f}x",),
        ],
    )
    emit(
        "kernel",
        workload=f"layered:{layers}x{size}:vs_monolithic",
        timings={"kernel": kernel, "monolithic": monolithic},
        speedups={"kernel_over_monolithic": monolithic / kernel},
    )
    assert monolithic >= 20 * kernel, (
        f"kernel must be ≥20x faster than the monolithic fixpoint: "
        f"{monolithic / kernel:.1f}x"
    )


@pytest.mark.repro("E16")
def test_timed_kernel_wfs(benchmark):
    """pytest-benchmark recording of the warm-IR evaluation."""
    context = build_context(layered_program(4, 40))
    get_kernel(context)
    model = benchmark(lambda: kernel_model(context))
    assert model.false_atoms
