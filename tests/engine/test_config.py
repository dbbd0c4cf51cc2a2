"""Unit tests for EngineConfig: one validation point, consistent messages."""

import importlib
import io

import pytest

from repro.config import (
    DEFAULT_ENGINE,
    DEFAULT_GROUNDER,
    DEFAULT_SEMANTICS,
    DEFAULT_STRATEGY,
    EVALUATION_ENGINES,
    EVALUATION_STRATEGIES,
    SUPPORTED_GROUNDERS,
    SUPPORTED_SEMANTICS,
    EngineConfig,
    resolve_config,
)
from repro.datalog.grounding import GroundingLimits
from repro.engine import solve
from repro.exceptions import EvaluationError, GroundingError


class TestValidation:
    def test_defaults_are_valid(self):
        config = EngineConfig()
        assert config.semantics == DEFAULT_SEMANTICS
        assert config.strategy == DEFAULT_STRATEGY
        assert config.engine == DEFAULT_ENGINE
        assert config.grounder == config.resolved_grounder == DEFAULT_GROUNDER

    @pytest.mark.parametrize(
        "field, value, error, expected",
        [
            ("semantics", "magic", EvaluationError, "unknown semantics 'magic'"),
            ("strategy", "quantum", EvaluationError, "unknown evaluation strategy 'quantum'"),
            ("engine", "hyperdrive", EvaluationError, "unknown evaluation engine 'hyperdrive'"),
            # The object-level batch evaluator is gone; the kernel replaced it.
            (
                "engine",
                "modular",
                EvaluationError,
                "unknown evaluation engine 'modular'; expected one of kernel, monolithic",
            ),
            ("grounder", "psychic", GroundingError, "unknown grounder 'psychic'"),
            # The scan matcher is only relevant_ground's oracle, not a grounder.
            ("grounder", "relevant-scan", GroundingError, "unknown grounder 'relevant-scan'"),
        ],
    )
    def test_each_field_rejects_unknown_values(self, field, value, error, expected):
        with pytest.raises(error) as caught:
            EngineConfig(**{field: value})
        message = str(caught.value)
        assert expected in message
        assert "expected one of" in message

    @pytest.mark.parametrize("option", ["maintenance", "refresh", "matcher"])
    def test_removed_options_are_not_fields(self, option):
        with pytest.raises(TypeError, match=option):
            EngineConfig(**{option: "component"})

    def test_every_valid_combination_constructs(self):
        for semantics in SUPPORTED_SEMANTICS:
            for strategy in EVALUATION_STRATEGIES:
                for engine in EVALUATION_ENGINES:
                    EngineConfig(semantics=semantics, strategy=strategy, engine=engine)

    def test_limits_type_checked(self):
        EngineConfig(limits=GroundingLimits(max_rules=10))
        with pytest.raises(EvaluationError, match="GroundingLimits"):
            EngineConfig(limits=42)

    def test_replace_revalidates(self):
        config = EngineConfig()
        assert config.replace(engine="monolithic").engine == "monolithic"
        with pytest.raises(EvaluationError):
            config.replace(engine="hyperdrive")

    def test_frozen(self):
        with pytest.raises(Exception):
            EngineConfig().semantics = "horn"


class TestOneHome:
    @pytest.mark.parametrize(
        "module",
        ["repro.engine", "repro.engine.solver", "repro.evaluation", "repro.evaluation.engine"],
    )
    def test_option_tuples_are_exported_by_config_only(self, module):
        exported = set(importlib.import_module(module).__all__)
        assert not exported & {
            "SUPPORTED_SEMANTICS",
            "EVALUATION_STRATEGIES",
            "EVALUATION_ENGINES",
            "DEFAULT_ENGINE",
            "DEFAULT_STRATEGY",
            "validate_strategy",
            "EngineConfig",
        }


class TestResolveConfig:
    def test_config_passthrough(self):
        config = EngineConfig(strategy="naive")
        assert resolve_config(config) is config

    def test_semantics_and_limits_override_config(self):
        config = EngineConfig(semantics="horn")
        merged = resolve_config(config, semantics="stable", limits=GroundingLimits(max_rules=9))
        assert merged.semantics == "stable"
        assert merged.limits.max_rules == 9


class TestSolveIntegration:
    GAME = "move(a, b). move(b, a). move(b, c). wins(X) :- move(X, Y), not wins(Y)."

    def test_solve_accepts_config(self):
        solution = solve(self.GAME, config=EngineConfig(semantics="well-founded", engine="monolithic"))
        assert solution.semantics == "well-founded"
        assert solution.engine == "monolithic"
        assert solution.config.engine == "monolithic"

    def test_solve_semantics_overrides_config(self):
        solution = solve(self.GAME, "well-founded", config=EngineConfig())
        assert solution.semantics == "well-founded"

    @pytest.mark.parametrize("keyword", ["strategy", "engine", "grounder", "matcher"])
    def test_solve_takes_no_per_field_keywords(self, keyword):
        with pytest.raises(TypeError, match=keyword):
            solve(self.GAME, **{keyword: "naive"})

    def test_entry_points_accept_config(self):
        from repro.core.alternating import alternating_fixpoint
        from repro.core.wellfounded import well_founded_model
        from repro.semantics.horn import horn_minimum_model
        from repro.semantics.stratified import stratified_model

        config = EngineConfig(strategy="naive", engine="monolithic")
        afp = alternating_fixpoint(self.GAME_PROGRAM(), config=config)
        wfs = well_founded_model(self.GAME_PROGRAM(), config=config)
        assert afp.model == wfs.model
        kernel = alternating_fixpoint(
            self.GAME_PROGRAM(), config=EngineConfig(strategy="naive", engine="kernel")
        )
        assert kernel.model == afp.model
        horn = horn_minimum_model(self.HORN_PROGRAM(), config=config)
        stratified = stratified_model(self.HORN_PROGRAM(), config=config)
        assert horn.true_atoms == stratified.true_atoms

    def test_knowledge_base_rejects_the_removed_modular_engine(self):
        from repro.session import KnowledgeBase

        with pytest.raises(EvaluationError, match="unknown evaluation engine 'modular'"):
            KnowledgeBase(self.GAME, config=EngineConfig(engine="modular"))

    def test_entry_points_reject_config_plus_kwargs(self):
        from repro.core.alternating import alternating_fixpoint

        with pytest.raises(EvaluationError, match="config"):
            alternating_fixpoint(self.GAME_PROGRAM(), strategy="naive", config=EngineConfig())

    @staticmethod
    def GAME_PROGRAM():
        from repro.datalog import parse_program

        return parse_program(TestSolveIntegration.GAME)

    @staticmethod
    def HORN_PROGRAM():
        from repro.datalog import parse_program

        return parse_program("edge(1, 2). tc(X, Y) :- edge(X, Y).")


class TestCliConsistency:
    """Every command rejects a bad option value with the same message."""

    @pytest.fixture
    def game_file(self, tmp_path):
        path = tmp_path / "game.lp"
        path.write_text(TestSolveIntegration.GAME, encoding="utf-8")
        return str(path)

    @pytest.mark.parametrize(
        "argv_tail",
        [
            ["solve", "--strategy", "quantum"],
            ["trace", "--strategy", "quantum"],
            ["query", "wins(c)", "--strategy", "quantum"],
            ["stable", "--strategy", "quantum"],
            ["explain", "wins(c)", "--strategy", "quantum"],
            ["repl", "--strategy", "quantum"],
        ],
    )
    def test_unknown_strategy_same_everywhere(self, game_file, argv_tail, capsys):
        from repro.cli import main

        argv = [argv_tail[0], game_file] + argv_tail[1:]
        assert main(argv, out=io.StringIO()) == 2
        err = capsys.readouterr().err
        assert "unknown evaluation strategy 'quantum'" in err
        assert "seminaive, naive" in err

    @pytest.mark.parametrize("engine", ["hyperdrive", "modular"])
    @pytest.mark.parametrize("command", ["solve", "trace", "query", "explain"])
    def test_unknown_engine_same_everywhere(self, game_file, command, engine, capsys):
        from repro.cli import main

        argv = [command, game_file]
        if command == "query":
            argv.append("wins(c)")
        if command == "explain":
            argv.append("wins(c)")
        argv += ["--engine", engine]
        assert main(argv, out=io.StringIO()) == 2
        err = capsys.readouterr().err
        assert f"unknown evaluation engine '{engine}'; expected one of kernel, monolithic" in err

    def test_unknown_semantics_matches_library_message(self, game_file, capsys):
        from repro.cli import main

        assert main(["solve", game_file, "--semantics", "magic"], out=io.StringIO()) == 2
        assert "unknown semantics 'magic'" in capsys.readouterr().err

    def test_query_exit_code_reflects_ground_verdict(self, game_file):
        from repro.cli import main

        assert main(["query", game_file, "wins(b)"], out=io.StringIO()) == 0
        assert main(["query", game_file, "wins(c)"], out=io.StringIO()) == 1

    def test_config_grounder_honoured_by_entry_points(self):
        from repro.core.alternating import alternating_fixpoint
        from repro.datalog import parse_program

        # ntc over a 2-cycle: the naive grounder widens the base with every
        # Herbrand instance, the relevant grounder keeps only supportable
        # ones — a config's grounder choice must reach build_context.
        program = parse_program("p(1). p(2). q(X, Y) :- p(X), p(Y), not w(X).")
        naive = alternating_fixpoint(program, config=EngineConfig(grounder="naive"))
        relevant = alternating_fixpoint(program, config=EngineConfig())
        assert naive.context.base >= relevant.context.base
        assert naive.true_atoms() == relevant.true_atoms()

    def test_flags_a_command_ignores_are_argparse_errors(self, game_file):
        # bench sweeps both strategies and both engines itself; stable
        # never consults the engine — passing the flag is an error, not a
        # silent no-op.
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["bench", game_file, "--strategy", "naive"], out=io.StringIO())
        with pytest.raises(SystemExit):
            main(["bench", game_file, "--engine", "kernel"], out=io.StringIO())
        with pytest.raises(SystemExit):
            main(["stable", game_file, "--engine", "kernel"], out=io.StringIO())

