"""The strategy surface of solve() and the CLI."""

import io

import pytest

from repro.cli import main
from repro.config import EVALUATION_STRATEGIES, EngineConfig
from repro.engine import solve
from repro.exceptions import EvaluationError
from repro.games import figure4b_edges, win_move_program

WIN_MOVE = """
move(a, b).  move(b, a).  move(b, c).  move(c, d).
wins(X) :- move(X, Y), not wins(Y).
"""

NTC = """
edge(a, b).  edge(b, c).
node(a).  node(b).  node(c).
tc(X, Y) :- edge(X, Y).
tc(X, Y) :- edge(X, Z), tc(Z, Y).
ntc(X, Y) :- node(X), node(Y), not tc(X, Y).
"""


class TestSolveStrategy:
    @pytest.mark.parametrize("semantics", ["auto", "well-founded", "alternating-fixpoint"])
    def test_strategies_agree_on_win_move(self, semantics):
        solutions = {
            strategy: solve(WIN_MOVE, semantics, config=EngineConfig(strategy=strategy))
            for strategy in EVALUATION_STRATEGIES
        }
        reference = solutions["seminaive"]
        for solution in solutions.values():
            assert solution.true_atoms() == reference.true_atoms()
            assert solution.false_atoms() == reference.false_atoms()

    @pytest.mark.parametrize("semantics", ["stratified", "stable"])
    def test_strategies_agree_on_ntc(self, semantics):
        fast = solve(NTC, semantics, config=EngineConfig(strategy="seminaive"))
        slow = solve(NTC, semantics, config=EngineConfig(strategy="naive"))
        assert fast.true_atoms() == slow.true_atoms()
        assert fast.false_atoms() == slow.false_atoms()

    def test_solution_records_the_strategy(self):
        assert solve(WIN_MOVE, config=EngineConfig(strategy="naive")).strategy == "naive"
        assert solve(WIN_MOVE).strategy == "seminaive"

    def test_unknown_strategy_raises(self):
        with pytest.raises(EvaluationError, match="unknown evaluation strategy"):
            solve(WIN_MOVE, config=EngineConfig(strategy="quantum"))


class TestCliStrategy:
    @pytest.fixture
    def program_file(self, tmp_path):
        path = tmp_path / "game.lp"
        path.write_text(WIN_MOVE)
        return str(path)

    @pytest.mark.parametrize("strategy", EVALUATION_STRATEGIES)
    def test_solve_accepts_strategy(self, program_file, strategy):
        out = io.StringIO()
        assert main(["solve", program_file, "--strategy", strategy], out=out) == 0
        assert "wins(b)" in out.getvalue()

    def test_trace_accepts_strategy(self, program_file):
        out = io.StringIO()
        assert main(["trace", program_file, "--strategy", "naive"], out=out) == 0

    def test_query_accepts_strategy(self, program_file):
        out = io.StringIO()
        assert main(["query", program_file, "wins(X)", "--strategy", "naive"], out=out) == 0
        assert "X = c" in out.getvalue()

    def test_bench_reports_agreement_and_speedup(self, program_file):
        out = io.StringIO()
        assert main(["bench", program_file, "--repeat", "1"], out=out) == 0
        text = out.getvalue()
        # The kernel has one scheme: the strategies are timed on the
        # monolithic engine.
        assert "evaluation phase (alternating fixpoint, monolithic engine):" in text
        assert "seminaive" in text and "naive" in text
        assert "models agree: yes" in text

    def test_bench_times_the_grounding_phase(self, program_file):
        out = io.StringIO()
        assert main(["bench", program_file, "--repeat", "1"], out=out) == 0
        text = out.getvalue()
        assert "grounding phase" in text
        assert "indexed" in text and "scan" in text
        assert "ground programs agree: yes" in text

    def test_bench_skips_grounding_phase_for_ground_programs(self, tmp_path):
        path = tmp_path / "ground.lp"
        path.write_text("p :- not q. q :- r.")
        out = io.StringIO()
        assert main(["bench", str(path), "--repeat", "1"], out=out) == 0
        assert "grounding phase" not in out.getvalue()

    def test_rejects_unknown_strategy(self, program_file, capsys):
        # Validation is centralised in EngineConfig: every command reports
        # an unknown value with the same message and exit code 2.
        assert main(["solve", program_file, "--strategy", "quantum"], out=io.StringIO()) == 2
        assert "unknown evaluation strategy 'quantum'" in capsys.readouterr().err


def test_public_exports():
    import repro

    assert repro.DEFAULT_STRATEGY == "seminaive"
    assert set(repro.EVALUATION_STRATEGIES) == {"seminaive", "naive"}
    solution = repro.solve(win_move_program(figure4b_edges()))
    assert solution.strategy == "seminaive"
