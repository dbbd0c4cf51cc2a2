"""Unit tests for flat-array kernel evaluation."""

import pytest

from repro.core.alternating import alternating_fixpoint
from repro.core.context import build_context
from repro.core.wellfounded import well_founded_model
from repro.datalog import parse_atom, parse_program
from repro.datalog.atoms import Atom, atom
from repro.games.winmove import figure4a_edges, solve_game, win_move_program
from repro.kernel import compile_context, evaluate_compiled, get_kernel, kernel_model
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
        model = kernel_model(build_context(win_move_program(edges)))
        for node in oracle.won:
            assert model.is_true(atom("wins", node)), node
        for node in oracle.lost:
            assert model.is_false(atom("wins", node)), node
        for node in oracle.drawn:
            assert model.is_undefined(atom("wins", node)), node


class TestTraceLog:
    """The model is the kernel's result; how its components were solved
    is read off the recorder."""

    def test_method_counts_and_statistics(self):
        context = build_context(
            parse_program("a. b :- a. p :- not q. win :- not lose. lose :- not win.")
        )
        recorder = TraceRecorder()
        model = kernel_model(context, recorder)
        totals = recorder.counter_totals()
        assert totals["components.alternating"] == 1  # the win/lose loop
        counts = [
            totals.get(f"components.{method}", 0)
            for method in ("horn", "stratified", "alternating")
        ]
        assert totals["components.total"] == sum(counts)
        compiled = recorder.find("compile").attributes
        assert compiled["components"] == totals["components.total"]
        assert compiled["bytes"] > 0
        assert not model.is_total_over(context.base)

    def test_tracing_counters_and_spans(self):
        recorder = TraceRecorder()
        context = build_context(
            parse_program("p :- not q. q :- r. win :- not lose. lose :- not win.")
        )
        kernel_model(context, recorder)
        names = [span.name for span in recorder.spans]
        assert names == ["compile", "evaluate", "assemble"]
        totals = recorder.counter_totals()
        compiled = get_kernel(context)
        assert totals["kernel.atoms"] == compiled.n_atoms
        assert totals["components.total"] == compiled.n_components
        assert totals["components.alternating"] == 1
        assert "kernel.stages" in totals
        assert "kernel.decrements" in totals


class TestEntryPoint:
    def test_accepts_prebuilt_context(self, win_move_4b):
        context = build_context(win_move_4b)
        afp = alternating_fixpoint(context, engine="kernel")
        wfs = well_founded_model(context, engine="kernel")
        assert afp.context is context and wfs.context is context
        assert afp.model == wfs.model == kernel_model(context)
        assert afp.model == alternating_fixpoint(win_move_4b, engine="kernel").model

    def test_takes_no_strategy(self, win_move_4b):
        # The kernel has one counter-driven scheme: no S_P strategy to pass.
        with pytest.raises(TypeError, match="strategy"):
            kernel_model(build_context(win_move_4b), strategy="naive")

    def test_kernel_model_matches_the_monolithic_afp(self, win_move_4b):
        assert kernel_model(build_context(win_move_4b)) == alternating_fixpoint(win_move_4b).model

    def test_extra_atoms_come_out_false(self):
        extra = Atom("ghost")
        result = alternating_fixpoint(parse_program("p."), extra_atoms=[extra], engine="kernel")
        assert extra in result.model.false_atoms
