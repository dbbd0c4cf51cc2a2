"""Strategy dispatch surface."""

import pytest

from repro.config import DEFAULT_STRATEGY, EVALUATION_STRATEGIES, validate_strategy
from repro.core.context import build_context
from repro.datalog.parser import parse_program
from repro.evaluation.engine import NaiveEngine, SeminaiveEngine, get_engine
from repro.exceptions import EvaluationError
from repro.fixpoint.interpretations import PartialInterpretation
from repro.fixpoint.lattice import NegativeSet

PROGRAM = parse_program("p :- q, not r. q. r :- not p. s :- s.")


class TestDispatch:
    def test_default_is_seminaive(self):
        assert DEFAULT_STRATEGY == "seminaive"
        assert DEFAULT_STRATEGY in EVALUATION_STRATEGIES

    def test_get_engine_returns_shared_instances(self):
        assert get_engine("seminaive") is get_engine("seminaive")
        assert isinstance(get_engine("seminaive"), SeminaiveEngine)
        assert isinstance(get_engine("naive"), NaiveEngine)

    def test_unknown_strategy_raises(self):
        with pytest.raises(EvaluationError, match="unknown evaluation strategy"):
            validate_strategy("magic")
        with pytest.raises(EvaluationError):
            get_engine("bottom-up-but-wrong")

    def test_validate_returns_the_strategy(self):
        for strategy in EVALUATION_STRATEGIES:
            assert validate_strategy(strategy) == strategy


class TestEnginesAgree:
    def test_all_primitives_agree(self):
        context = build_context(PROGRAM)
        seminaive = get_engine("seminaive")
        naive = get_engine("naive")
        atoms = sorted(context.base, key=str)
        negative = NegativeSet(atoms[::2])
        positive = frozenset(atoms[1::2])
        interpretation = PartialInterpretation(atoms[1:2], atoms[3:4])
        active = bytearray(b"\x01") * len(context.rules)

        assert seminaive.step(context, positive, negative) == naive.step(
            context, positive, negative
        )
        assert seminaive.consequence(context, negative) == naive.consequence(context, negative)
        assert seminaive.closure(context, context.facts, active) == naive.closure(
            context, context.facts, active
        )
        assert seminaive.supported(context, interpretation) == naive.supported(
            context, interpretation
        )
