"""Unit tests for flat-array kernel evaluation."""

import pytest

from repro.core.alternating import alternating_fixpoint
from repro.core.context import build_context
from repro.datalog import parse_atom, parse_program
from repro.datalog.atoms import Atom, atom
from repro.games.winmove import figure4a_edges, solve_game, win_move_program
from repro.kernel import (
    compile_context,
    evaluate_compiled,
    kernel_model,
    kernel_well_founded,
)
from repro.obs import TraceRecorder

UNKNOWN, TRUE, FALSE = 0, 1, 2


def _truth(text: str):
    compiled = compile_context(build_context(parse_program(text)))
    truth, methods, stages, decrements = evaluate_compiled(compiled)
    return compiled, truth


def _code(compiled, truth, name: str) -> int:
    return truth[compiled.atoms.index(parse_atom(name))]


class TestEvaluateCompiled:
    def test_horn_closure(self):
        compiled, truth = _truth("a. b :- a. c :- b. d :- missing.")
        assert _code(compiled, truth, "a") == TRUE
        assert _code(compiled, truth, "b") == TRUE
        assert _code(compiled, truth, "c") == TRUE
        assert _code(compiled, truth, "d") == FALSE
        assert _code(compiled, truth, "missing") == FALSE

    def test_stratified_negation(self):
        compiled, truth = _truth("p :- not q. q :- r.")
        assert _code(compiled, truth, "p") == TRUE
        assert _code(compiled, truth, "q") == FALSE
        assert _code(compiled, truth, "r") == FALSE

    def test_undefined_triangle_stays_unknown(self):
        compiled, truth = _truth("a :- not b. b :- not c. c :- not a.")
        for name in ("a", "b", "c"):
            assert _code(compiled, truth, name) == UNKNOWN

    def test_self_negation_is_undefined(self):
        compiled, truth = _truth("p :- not p.")
        assert _code(compiled, truth, "p") == UNKNOWN

    def test_unfounded_positive_loop_is_false(self):
        compiled, truth = _truth("p :- q. q :- p.")
        assert _code(compiled, truth, "p") == FALSE
        assert _code(compiled, truth, "q") == FALSE

    def test_figure4a_game_statuses(self):
        edges = figure4a_edges()
        oracle = solve_game(edges)
        model = kernel_model(win_move_program(edges))
        for node in oracle.won:
            assert model.is_true(atom("wins", node)), node
        for node in oracle.lost:
            assert model.is_false(atom("wins", node)), node
        for node in oracle.drawn:
            assert model.is_undefined(atom("wins", node)), node


class TestKernelResult:
    def test_method_counts_and_statistics(self):
        result = kernel_well_founded(
            parse_program("a. b :- a. p :- not q. win :- not lose. lose :- not win.")
        )
        counts = result.method_counts()
        assert counts["alternating"] == 1  # the win/lose loop
        assert result.component_count == sum(counts.values())
        stats = result.statistics()
        assert stats["components"] == result.component_count
        assert stats["kernel_bytes"] > 0
        assert not result.is_total

    def test_tracing_counters_and_spans(self):
        recorder = TraceRecorder()
        result = kernel_well_founded(
            build_context(parse_program("p :- not q. q :- r. win :- not lose. lose :- not win.")),
            recorder=recorder,
        )
        names = [span.name for span in recorder.spans]
        assert names == ["compile", "evaluate", "assemble"]
        totals = recorder.counter_totals()
        assert totals["kernel.atoms"] == result.compiled.n_atoms
        assert totals["components.total"] == result.component_count
        assert totals["components.alternating"] == 1
        assert "kernel.stages" in totals
        assert "kernel.decrements" in totals


class TestEntryPoint:
    def test_accepts_prebuilt_context(self, win_move_4b):
        context = build_context(win_move_4b)
        from_context = kernel_well_founded(context)
        assert from_context.context is context
        assert from_context.model == kernel_well_founded(win_move_4b).model

    def test_takes_no_strategy(self, win_move_4b):
        # The kernel has one counter-driven scheme: no S_P strategy to pass.
        with pytest.raises(TypeError, match="strategy"):
            kernel_well_founded(win_move_4b, strategy="naive")

    def test_kernel_model_wrapper(self, win_move_4b):
        assert kernel_model(win_move_4b) == alternating_fixpoint(win_move_4b).model

    def test_extra_atoms_come_out_false(self):
        extra = Atom("ghost")
        result = kernel_well_founded(parse_program("p."), extra_atoms=[extra])
        assert extra in result.model.false_atoms
