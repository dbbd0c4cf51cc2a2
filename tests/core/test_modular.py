"""Unit tests for component-wise well-founded evaluation.

A session solves every component of its ground program with
:func:`repro.core.modular.solve_component`; the ``session_full_solve``
fixture (``tests/conftest.py``) runs that full solve under a
:class:`~repro.obs.TraceRecorder` and reads the model from the engine
and the per-component log — ``component`` spans and
``components.<method>`` counters — from the trace.
"""

import pytest

from repro.config import DEFAULT_ENGINE, EVALUATION_ENGINES, validate_engine
from repro.core.alternating import alternating_fixpoint
from repro.core.wellfounded import well_founded_model
from repro.datalog import parse_program
from repro.datalog.atoms import Atom
from repro.exceptions import EvaluationError
from repro.session import KnowledgeBase
from repro.workloads import layered_program


@pytest.fixture
def assert_same_model(session_full_solve):
    def check(program):
        """The session's model must equal both monolithic characterisations."""
        modular = session_full_solve(program)
        afp = alternating_fixpoint(program)
        wfs = well_founded_model(program)
        assert modular.model == afp.model == wfs.model
        return modular

    return check


class TestModelEquality:
    def test_win_move(self, assert_same_model, win_move_4b):
        modular = assert_same_model(win_move_4b)
        assert not modular.is_total

    def test_example_5_1(self, assert_same_model, example_5_1):
        assert_same_model(example_5_1)

    def test_example_3_1(self, assert_same_model, example_3_1):
        assert_same_model(example_3_1)

    def test_ntc(self, assert_same_model, ntc_program):
        modular = assert_same_model(ntc_program)
        # Stratified program: nothing is left undefined anywhere.
        assert modular.is_total

    def test_layered(self, assert_same_model):
        assert_same_model(layered_program(3, 5))

    def test_empty_program(self, session_full_solve):
        modular = session_full_solve(parse_program(""))
        assert modular.components == []
        assert modular.model.true_atoms == frozenset()
        assert modular.model.false_atoms == frozenset()

    def test_facts_only(self, session_full_solve):
        modular = session_full_solve(parse_program("a. b."))
        assert modular.model.true_atoms == {Atom("a"), Atom("b")}
        assert modular.is_total


class TestMethodDispatch:
    def test_horn_component(self, session_full_solve):
        modular = session_full_solve(parse_program("a. b :- a. c :- b, a."))
        assert set(modular.method_counts()) == {"horn"}
        assert modular.is_total

    def test_positive_recursion_is_one_horn_component(self, session_full_solve):
        modular = session_full_solve(parse_program("p :- q. q :- p. r."))
        sizes = {component["size"] for component in modular.components}
        assert 2 in sizes  # the {p, q} loop collapses into one component
        assert set(modular.method_counts()) == {"horn"}
        assert modular.model.false_atoms >= {Atom("p"), Atom("q")}

    def test_downward_negation_resolves_to_horn(self, session_full_solve):
        # Negation only points at already-decided atoms below: nothing is
        # left undefined, so both components solve as Horn closures.
        modular = session_full_solve(parse_program("a. b :- not c. c :- not a."))
        assert set(modular.method_counts()) == {"horn"}
        assert modular.model.true_atoms == {Atom("a"), Atom("b")}

    def test_negation_through_recursion_is_alternating(self, session_full_solve):
        modular = session_full_solve(parse_program("p :- not q. q :- not p."))
        assert modular.method_counts() == {"alternating": 1}
        assert modular.undefined_atoms == {Atom("p"), Atom("q")}

    def test_self_negation_singleton_is_alternating(self, session_full_solve):
        modular = session_full_solve(parse_program("p :- not p."))
        assert modular.method_counts() == {"alternating": 1}
        assert modular.undefined_atoms == {Atom("p")}

    def test_literals_on_undefined_atoms_are_stratified(self, session_full_solve):
        # q (positive) and r (negative) both rest on the undefined p from
        # the component below; s rests on both observers.  Only p's
        # singleton depends on itself, so it is the alternating one.
        modular = session_full_solve(
            parse_program("p :- not p. q :- p. r :- not p. s :- q, r.")
        )
        assert [component["size"] for component in modular.components] == [1, 1, 1, 1]
        assert modular.method_counts() == {"alternating": 1, "stratified": 3}
        assert modular.undefined_atoms == {Atom("p"), Atom("q"), Atom("r"), Atom("s")}

    def test_killed_rule_does_not_force_alternating(self, session_full_solve):
        # The rule `p :- not q, not a` mentions q negatively inside the
        # {p, q} loop but is killed by the true atom a below; the surviving
        # residual rules are purely positive, so the component must solve
        # as one Horn closure, not a per-component alternating fixpoint.
        modular = session_full_solve(parse_program("a. p :- q. q :- p. p :- not q, not a."))
        loop = next(component for component in modular.components if component["size"] == 2)
        assert loop["method"] == "horn"
        assert modular.model.false_atoms == {Atom("p"), Atom("q")}

    def test_layered_dispatch_counts(self, session_full_solve):
        layers, size = 3, 6
        modular = session_full_solve(layered_program(layers, size))
        counts = modular.method_counts()
        # One undefined triangle per layer...
        assert counts["alternating"] == layers
        # ...watched by one frontier and one shadow observer per layer.
        assert counts["stratified"] == 2 * layers
        # Everything else (chains, bridges, bases) resolves as Horn.
        assert counts["horn"] == len(modular.components) - 3 * layers

    def test_component_spans_are_consistent(self, session_full_solve, example_5_1):
        modular = session_full_solve(example_5_1)
        for index, component in enumerate(modular.components):
            assert component["index"] == index
            assert component["size"] >= 1
            assert component["rules"] >= 0
            assert component["method"] in ("horn", "stratified", "alternating")
            assert component["stages"] >= 1
        total = sum(component["size"] for component in modular.components)
        assert total == len(modular.base)

    def test_statistics_shape(self, win_move_4b):
        stats = KnowledgeBase(win_move_4b).statistics()
        assert stats["components"] > 0
        assert "methods" not in stats and "stages" not in stats
        assert stats["atoms"] == 8


class TestReservedLookingPredicate:
    """Solving a component adds no atom of its own, so no predicate name
    is reserved: ``_wfs_undef`` is an ordinary predicate."""

    def test_wfs_undef_is_an_ordinary_predicate(self, session_full_solve):
        from repro.datalog import ProgramBuilder

        builder = ProgramBuilder()
        builder.proposition("_wfs_undef", "-p")
        builder.proposition("p", "-p")
        program = builder.build()
        modular = session_full_solve(program)
        assert modular.model == alternating_fixpoint(program).model
        assert Atom("_wfs_undef") in modular.undefined_atoms

    def test_model_mentions_only_program_atoms(self, session_full_solve):
        # q's rule rests on p, left undefined below q's component: the
        # marker case, solved without adding an atom.
        program = parse_program("p :- not p. q :- p, not q.")
        modular = session_full_solve(program)
        base = alternating_fixpoint(program).context.base
        assert modular.model.true_atoms | modular.model.false_atoms <= base
        assert modular.base == base
        assert sum(component["size"] for component in modular.components) == len(base)
        assert modular.undefined_atoms == base


class TestEngineDispatch:
    def test_validate_engine(self):
        for engine in EVALUATION_ENGINES:
            assert validate_engine(engine) == engine
        with pytest.raises(EvaluationError):
            validate_engine("turbo")
        assert DEFAULT_ENGINE in EVALUATION_ENGINES

    def test_alternating_fixpoint_engine_dispatch(self, win_move_4b):
        monolithic = alternating_fixpoint(win_move_4b, engine="monolithic")
        kernel = alternating_fixpoint(win_move_4b, engine="kernel")
        assert kernel.model == monolithic.model
        # The kernel run has no global stage sequence: one synthetic row.
        assert len(kernel.stages) == 1
        assert kernel.iterations == 0

    def test_well_founded_model_engine_dispatch(self, win_move_4b):
        monolithic = well_founded_model(win_move_4b, engine="monolithic")
        kernel = well_founded_model(win_move_4b, engine="kernel")
        assert kernel.model == monolithic.model
        assert kernel.stages[-1] == kernel.model

    def test_unknown_engine_raises(self, win_move_4b):
        # "modular" too: the object-level batch evaluator is gone.
        for engine in ("warp", "modular"):
            with pytest.raises(EvaluationError, match=f"unknown evaluation engine '{engine}'"):
                alternating_fixpoint(win_move_4b, engine=engine)
            with pytest.raises(EvaluationError, match=f"unknown evaluation engine '{engine}'"):
                well_founded_model(win_move_4b, engine=engine)


class TestKeepStages:
    def test_keep_stages_false_retains_endpoints(self, example_5_1):
        full = alternating_fixpoint(example_5_1)
        trimmed = alternating_fixpoint(example_5_1, keep_stages=False)
        assert trimmed.model == full.model
        assert len(trimmed.stages) == 2
        assert trimmed.stages[0] == full.stages[0]
        assert trimmed.stages[-1] == full.stages[-1]
        # The true iteration count survives the trimming.
        assert trimmed.iterations == full.iterations
        assert trimmed.stage_count == len(full.stages)
