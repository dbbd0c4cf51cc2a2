"""Unit tests for the command-line interface."""

import io
import json

import pytest

from repro.cli import build_parser, main

GAME_TEXT = """
move(a, b). move(b, a). move(b, c). move(c, d).
wins(X) :- move(X, Y), not wins(Y).
"""

#: The kernel's per-method component counts on GAME_TEXT, as ``trace
#: --engine kernel`` and ``bench`` print them from a traced run.
GAME_KERNEL_COUNTS = """\
components: 7 (compiled kernel)
  horn              6 components
  alternating       1 components
  stages       8 total
"""

TC_RULES = """
tc(X, Y) :- edge(X, Y).
tc(X, Y) :- edge(X, Z), tc(Z, Y).
"""


@pytest.fixture
def game_file(tmp_path):
    path = tmp_path / "game.lp"
    path.write_text(GAME_TEXT, encoding="utf-8")
    return str(path)


def run(*argv: str) -> tuple[int, str]:
    buffer = io.StringIO()
    code = main(list(argv), out=buffer)
    return code, buffer.getvalue()


class TestParser:
    def test_all_subcommands_registered(self):
        parser = build_parser()
        text = parser.format_help()
        for command in ("solve", "trace", "query", "stable", "classify", "explain", "compare"):
            assert command in text

    def test_missing_command_is_an_error(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestSolveCommand:
    def test_prints_model(self, game_file):
        code, output = run("solve", game_file, "--predicate", "wins")
        assert code == 0
        assert "alternating-fixpoint" in output
        assert "wins(c)" in output and "wins(d)" in output

    def test_explicit_semantics(self, game_file):
        code, output = run("solve", game_file, "--semantics", "well-founded")
        assert code == 0
        assert "well-founded" in output

    def test_json_output(self, game_file, tmp_path):
        out_path = tmp_path / "model.json"
        code, output = run("solve", game_file, "--json", str(out_path))
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert "wins(c)" in payload["true"]
        assert payload["metadata"]["semantics"] == "alternating-fixpoint"

    def test_facts_csv_attachment(self, tmp_path):
        rules = tmp_path / "tc.lp"
        rules.write_text(TC_RULES, encoding="utf-8")
        csv_path = tmp_path / "edge.csv"
        csv_path.write_text("1,2\n2,3\n", encoding="utf-8")
        code, output = run("solve", str(rules), "--facts", f"edge={csv_path}")
        assert code == 0
        assert "tc(1, 3)" in output

    def test_bad_facts_option(self, tmp_path, game_file):
        code, _ = run("solve", game_file, "--facts", "no-equals-sign")
        assert code == 2


class TestOtherCommands:
    def test_trace(self, game_file):
        code, output = run("trace", game_file, "--predicate", "wins")
        assert code == 0
        assert "S_P" in output
        assert "total model: no" in output

    def test_query_ground(self, game_file):
        code, output = run("query", game_file, "wins(c)")
        assert code == 0
        assert output.strip() == "true"

    def test_query_with_variables(self, game_file):
        code, output = run("query", game_file, "wins(X)")
        assert code == 0
        assert "X = c" in output

    def test_query_with_underscore_variable(self, game_file):
        code, output = run("query", game_file, "wins(_X)")
        assert code == 0
        assert output.strip() == "_X = c"

    def test_ground_query_on_capitalised_string(self, tmp_path):
        path = tmp_path / "people.lp"
        path.write_text('person("Alice").\n', encoding="utf-8")
        assert run("query", str(path), 'person("Alice")') == (0, "true\n")
        assert run("query", str(path), 'person("Bob")') == (1, "false\n")

    def test_stable(self, game_file):
        code, output = run("stable", game_file)
        assert code == 0
        assert output.count("stable model") == 2

    def test_stable_no_model_exit_code(self, tmp_path):
        path = tmp_path / "odd.lp"
        path.write_text("p :- not p.", encoding="utf-8")
        code, output = run("stable", str(path))
        assert code == 1
        assert "no stable model" in output

    def test_classify(self, game_file):
        code, output = run("classify", game_file)
        assert code == 0
        # Win-move recurses through negation and is not ground: every class
        # line reads False, and there is no other line.
        classes = (
            "definite",
            "stratified",
            "locally_stratified",
            "strict",
            "strict_in_idb",
            "ground",
            "propositional",
        )
        assert output.splitlines() == [f"{name:24s} False" for name in classes]

    def test_explain(self, game_file):
        code, output = run("explain", game_file, "wins(c)")
        assert code == 0
        assert "wins(c): true" in output
        assert "not wins(d)" in output

    def test_compare(self, game_file):
        code, output = run("compare", game_file, "--atoms", "wins(a)", "wins(c)")
        assert code == 0
        assert "WFS" in output and "undefined" in output
        assert "Theorem 7.8" in output

    def test_compare_defaults_to_idb_atoms(self, game_file):
        code, output = run("compare", game_file, "--no-stable")
        assert code == 0
        assert "wins(a)" in output
        assert "move(a, b)" not in output


class TestEngineOption:
    def test_solve_accepts_engine(self, game_file):
        kernel = run("solve", game_file, "--engine", "kernel", "--predicate", "wins")
        monolithic = run("solve", game_file, "--engine", "monolithic", "--predicate", "wins")
        assert kernel == monolithic
        assert kernel[0] == 0

    def test_trace_kernel_prints_component_counts(self, game_file):
        code, output = run("trace", game_file, "--engine", "kernel")
        assert code == 0
        assert output.startswith(GAME_KERNEL_COUNTS)
        assert output.endswith("total model: no\n")

    def test_trace_default_stays_monolithic(self, game_file):
        code, output = run("trace", game_file)
        assert code == 0
        assert "S_P" in output and "components:" not in output

    def test_query_accepts_engine(self, game_file):
        code, output = run("query", game_file, "wins(c)", "--engine", "kernel")
        assert code == 0
        assert output.strip() == "true"


class TestBenchCommand:
    def test_bench_reports_engine_split(self, game_file):
        code, output = run("bench", game_file, "--repeat", "1")
        assert code == 0
        assert "kernel vs monolithic" in output
        assert GAME_KERNEL_COUNTS in output
        assert output.count("models agree: yes") == 2
