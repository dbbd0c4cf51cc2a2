"""Unit tests for terms."""

import pytest

from repro.datalog.terms import (
    Compound,
    Constant,
    Variable,
    enumerate_ground_terms,
    make_term,
    substitute_term,
    term_constants,
    term_depth,
    term_functions,
    term_variables,
)


class TestConstruction:
    def test_constant_holds_value(self):
        assert Constant(3).value == 3
        assert Constant("a").value == "a"

    def test_constant_is_ground(self):
        assert Constant("a").is_ground

    def test_variable_is_not_ground(self):
        assert not Variable("X").is_ground

    def test_compound_requires_arguments(self):
        with pytest.raises(ValueError):
            Compound("f", ())

    def test_compound_groundness_depends_on_args(self):
        assert Compound("f", (Constant(1),)).is_ground
        assert not Compound("f", (Variable("X"),)).is_ground

    def test_equality_is_structural(self):
        assert Compound("f", (Constant(1),)) == Compound("f", (Constant(1),))
        assert Constant(1) != Constant(2)
        assert Variable("X") != Constant("X")

    def test_terms_are_hashable(self):
        items = {Constant(1), Variable("X"), Compound("f", (Constant(1),))}
        assert len(items) == 3


class TestPrinting:
    @pytest.mark.parametrize(
        ("value", "printed"),
        [
            ("a", "a"),
            ("x_1", "x_1"),
            (-3, "-3"),
            ("Alice", '"Alice"'),
            ("_x", '"_x"'),
            ("12", '"12"'),
            ("not", '"not"'),
            ("a b", '"a b"'),
            ("", '""'),
            ('say "hi"', "'say \"hi\"'"),
        ],
    )
    def test_strings_are_quoted_unless_they_read_back_bare(self, value, printed):
        assert str(Constant(value)) == printed

    def test_compound_prints_its_arguments(self):
        assert str(Compound("f", (Constant("A b"), Variable("X")))) == 'f("A b", X)'


class TestMakeTerm:
    def test_uppercase_string_becomes_variable(self):
        assert make_term("X") == Variable("X")
        assert make_term("Xyz") == Variable("Xyz")

    def test_underscore_becomes_variable(self):
        assert make_term("_anything") == Variable("_anything")

    def test_lowercase_string_becomes_constant(self):
        assert make_term("abc") == Constant("abc")

    def test_integer_becomes_constant(self):
        assert make_term(7) == Constant(7)

    def test_existing_term_passes_through(self):
        term = Compound("f", (Constant(1),))
        assert make_term(term) is term


class TestTraversal:
    def test_term_variables(self):
        term = Compound("f", (Variable("X"), Compound("g", (Variable("Y"), Constant(1)))))
        assert set(term_variables(term)) == {Variable("X"), Variable("Y")}

    def test_term_constants(self):
        term = Compound("f", (Constant("a"), Compound("g", (Constant(2),))))
        assert set(term_constants(term)) == {Constant("a"), Constant(2)}

    def test_term_functions(self):
        term = Compound("f", (Compound("g", (Constant(1),)), Constant(2)))
        assert set(term_functions(term)) == {("f", 2), ("g", 1)}

    def test_term_depth(self):
        assert term_depth(Constant(1)) == 0
        assert term_depth(Variable("X")) == 0
        assert term_depth(Compound("f", (Constant(1),))) == 1
        assert term_depth(Compound("f", (Compound("g", (Constant(1),)),))) == 2


class TestSubstitution:
    def test_substitutes_variable(self):
        binding = {Variable("X"): Constant(1)}
        assert substitute_term(Variable("X"), binding) == Constant(1)

    def test_leaves_unbound_variable(self):
        assert substitute_term(Variable("Y"), {Variable("X"): Constant(1)}) == Variable("Y")

    def test_substitutes_inside_compound(self):
        term = Compound("f", (Variable("X"), Constant(2)))
        result = substitute_term(term, {Variable("X"): Constant(1)})
        assert result == Compound("f", (Constant(1), Constant(2)))


class TestEnumeration:
    def test_constants_only(self):
        terms = enumerate_ground_terms([Constant(1), Constant(2)], [], max_depth=3)
        assert set(terms) == {Constant(1), Constant(2)}

    def test_depth_one_function(self):
        terms = enumerate_ground_terms([Constant("a")], [("f", 1)], max_depth=1)
        assert Compound("f", (Constant("a"),)) in terms
        assert len(terms) == 2

    def test_depth_two_function(self):
        terms = enumerate_ground_terms([Constant("a")], [("f", 1)], max_depth=2)
        assert Compound("f", (Compound("f", (Constant("a"),)),)) in terms

    def test_binary_function_combinations(self):
        terms = enumerate_ground_terms([Constant("a"), Constant("b")], [("g", 2)], max_depth=1)
        new_terms = [t for t in terms if isinstance(t, Compound)]
        assert len(new_terms) == 4

    def test_zero_depth_ignores_functions(self):
        terms = enumerate_ground_terms([Constant("a")], [("f", 1)], max_depth=0)
        assert terms == [Constant("a")]

    def test_duplicate_constants_deduplicated(self):
        terms = enumerate_ground_terms([Constant("a"), Constant("a")], [], max_depth=0)
        assert terms == [Constant("a")]
