"""Unit tests for program classification."""

from repro.analysis.classification import classify
from repro.datalog.parser import parse_program


class TestClassification:
    def test_horn_program(self):
        classification = classify(parse_program("p :- q. q."))
        assert classification.is_definite
        assert classification.is_stratified
        assert classification.is_locally_stratified

    def test_stratified_program(self, ntc_program):
        classification = classify(ntc_program)
        assert not classification.is_definite
        assert classification.is_stratified
        assert classification.has_total_well_founded_model

    def test_unstratified_program(self, win_move_4b):
        classification = classify(win_move_4b)
        assert not classification.is_stratified
        assert not classification.is_locally_stratified

    def test_locally_but_not_globally_stratified(self):
        program = parse_program(
            """
            even(0).
            even(2) :- not even(1).
            even(1) :- not even(0).
            """
        )
        classification = classify(program)
        assert not classification.is_stratified
        assert classification.is_locally_stratified

    def test_check_local_flag_skips_grounding(self, win_move_4b):
        classification = classify(win_move_4b, check_local=False)
        assert not classification.is_locally_stratified

    def test_summary_keys(self):
        summary = classify(parse_program("p.")).summary()
        assert list(summary) == [
            "definite",
            "stratified",
            "locally_stratified",
            "strict",
            "strict_in_idb",
            "ground",
            "propositional",
        ]

    def test_ground_and_propositional_flags(self):
        classification = classify(parse_program("p :- not q."))
        assert classification.is_ground
        assert classification.is_propositional
