"""Unit tests for the parser and tokenizer."""

import pytest

from repro.datalog.atoms import atom, neg, pos
from repro.datalog.parser import parse_atom, parse_literal, parse_program, parse_rule, tokenize
from repro.datalog.rules import Rule
from repro.datalog.terms import KEYWORDS, Compound, Constant, Variable, is_identifier, make_term
from repro.exceptions import ParseError


class TestTokenizer:
    def test_basic_tokens(self):
        kinds = [t.kind for t in tokenize("p(X, 1) :- q(X).")]
        assert kinds == [
            "name", "lparen", "name", "comma", "number", "rparen",
            "implies", "name", "lparen", "name", "rparen", "dot",
        ]

    def test_comments_are_skipped(self):
        assert [t.value for t in tokenize("p. % comment\n# another\nq.")] == ["p", ".", "q", "."]

    def test_not_keyword(self):
        assert tokenize("not p")[0].kind == "not"

    def test_tilde_and_backslash_plus_negation(self):
        assert tokenize("~p")[0].kind == "not"
        assert tokenize("\\+ p")[0].kind == "not"

    def test_positions_are_tracked(self):
        tokens = tokenize("p.\n  q.")
        assert (tokens[2].line, tokens[2].column) == (2, 3)

    def test_negative_numbers(self):
        assert tokenize("p(-3)")[2].value == "-3"

    def test_strings(self):
        token = tokenize('p("hello world")')[2]
        assert token.kind == "string" and token.value == "hello world"

    def test_unterminated_string_raises(self):
        with pytest.raises(ParseError):
            tokenize('p("oops')

    def test_unexpected_character_raises(self):
        with pytest.raises(ParseError):
            tokenize("p ? q")


#: (entry point, text, message, line, column) for every kind of error the
#: parser raises; errors with no position have ``None`` line and column.
ERRORS = [
    (parse_program, "p :q.", "unexpected character ':'", 1, 3),
    (parse_program, "p\t:q.", "unexpected character ':'", 1, 3),
    (parse_program, "% c\np ? .", "unexpected character '?'", 2, 3),
    (parse_program, "p(- 1).", "unexpected character '-'", 1, 3),
    (parse_program, "p(\u00b2).", "unexpected character '\u00b2'", 1, 3),
    (parse_program, 'p("a\nb"). q ? r.', "unexpected character '?'", 2, 8),
    (parse_program, 'p("oops', "unterminated string literal", 1, 3),
    (parse_program, "p(a b). ?", "unexpected character '?'", 1, 9),
    (parse_program, "P(a).", "atom predicate 'P' must not start with an uppercase letter", 1, 1),
    (parse_program, "_p.", "atom predicate '_p' must not start with an uppercase letter", 1, 1),
    (parse_program, "p(a b).", "expected ',' or ')', found 'b'", 1, 5),
    (parse_program, "p(X(a)).", "expected ',' or ')', found '('", 1, 4),
    (parse_program, "p(a) :- .", "expected name, found '.'", 1, 9),
    (parse_program, "not :- q.", "expected name, found 'not'", 1, 1),
    (parse_program, "p(,).", "expected a term, found ','", 1, 3),
    (parse_program, "p q.", "expected dot, found 'q'", 1, 3),
    (parse_program, 'p "x".', "expected dot, found 'x'", 1, 3),
    (parse_program, "p :- q", "expected dot, found end of input", None, None),
    (parse_program, "p :-", "expected name, found end of input", None, None),
    (parse_program, "p(a", "unexpected end of input", None, None),
    (parse_program, "p(a,", "unexpected end of input", None, None),
    (parse_rule, "p. q.", "trailing input after rule", None, None),
    (parse_atom, "p(a) q", "trailing input after atom", None, None),
    (parse_literal, "not p q", "trailing input after literal", None, None),
]


class TestParseErrors:
    @pytest.mark.parametrize(("parse", "text", "message", "line", "column"), ERRORS)
    def test_message_and_position(self, parse, text, message, line, column):
        with pytest.raises(ParseError) as raised:
            parse(text)
        where = "" if line is None else f" (line {line}, column {column})"
        assert str(raised.value) == message + where
        assert (raised.value.line, raised.value.column) == (line, column)

    def test_tokenize_reports_the_same_positions(self):
        with pytest.raises(ParseError) as raised:
            tokenize('p("a\nb"). q ? r.')
        assert (raised.value.line, raised.value.column) == (2, 8)
        assert [(t.line, t.column) for t in tokenize('p("a\nb"). q.')][-2:] == [(2, 6), (2, 7)]


class TestAcceptedLanguage:
    def test_unicode_decimal_digits_are_numbers(self):
        assert parse_atom("p(\u0661)") == atom("p", 1)

    def test_identifiers_continue_with_any_alphanumeric(self):
        assert parse_atom("p(a\u00b2)").args[0] == Constant("a\u00b2")

    def test_numeric_letters_do_not_start_an_identifier(self):
        # U+216B (ROMAN NUMERAL TWELVE) is uppercase and alphanumeric but
        # not alphabetic, so it starts no token.
        with pytest.raises(ParseError, match="unexpected character"):
            parse_atom("p(\u216b)")

    @pytest.mark.parametrize("name", ["a", "x_1", "Alice", "_x", "\u01c5x", "\u00e9t\u00e9"])
    def test_identifiers_read_as_make_term_reads_them(self, name):
        # U+01C5 is a titlecase letter: alphabetic but not uppercase.
        assert is_identifier(name)
        assert parse_atom(f"p({name})").args[0] == make_term(name)

    @pytest.mark.parametrize("keyword", sorted(KEYWORDS))
    def test_keywords_read_as_no_term_and_print_quoted(self, keyword):
        with pytest.raises(ParseError, match="expected a term"):
            parse_atom(f"p({keyword})")
        assert parse_atom(f"p({Constant(keyword)})").args[0] == Constant(keyword)


class TestInterning:
    def test_equal_terms_and_atoms_are_one_object(self):
        program = parse_program("p(a, 1, X) :- q(a, a, 1, X), not p(a, 1, X).")
        (rule,) = program.rules
        head, (positive, negative) = rule.head, rule.body
        assert negative.atom is head
        assert positive.atom.args[0] is positive.atom.args[1] is head.args[0]
        assert positive.atom.args[2] is head.args[1]
        assert positive.atom.args[3] is head.args[2]


class TestParseAtomAndLiteral:
    def test_propositional_atom(self):
        assert parse_atom("p") == atom("p")

    def test_atom_with_arguments(self):
        assert parse_atom("edge(a, X, 3)") == atom("edge", "a", "X", 3)

    def test_nested_compound_terms(self):
        parsed = parse_atom("p(f(a, g(X)))")
        assert parsed.args[0] == Compound("f", (Constant("a"), Compound("g", (Variable("X"),))))

    def test_string_constant(self):
        assert parse_atom('label(X, "a b")').args[1] == Constant("a b")

    def test_uppercase_predicate_rejected(self):
        with pytest.raises(ParseError):
            parse_atom("Pred(a)")

    def test_positive_literal(self):
        assert parse_literal("edge(1, 2)") == pos("edge", 1, 2)

    def test_negative_literal(self):
        assert parse_literal("not edge(1, 2)") == neg("edge", 1, 2)

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_atom("p(a) q")


class TestParseRule:
    def test_fact(self):
        assert parse_rule("edge(1, 2).") == Rule(atom("edge", 1, 2))

    def test_rule_with_body(self):
        parsed = parse_rule("wins(X) :- move(X, Y), not wins(Y).")
        assert parsed == Rule(atom("wins", "X"), (pos("move", "X", "Y"), neg("wins", "Y")))

    def test_arrow_synonym(self):
        assert parse_rule("p <- q.") == parse_rule("p :- q.")

    def test_missing_dot_rejected(self):
        with pytest.raises(ParseError):
            parse_rule("p :- q")

    def test_missing_body_literal_rejected(self):
        with pytest.raises(ParseError):
            parse_rule("p :- .")


class TestParseProgram:
    def test_round_trip(self):
        text = """
        edge(1, 2). edge(2, 3).
        tc(X, Y) :- edge(X, Y).
        tc(X, Y) :- edge(X, Z), tc(Z, Y).
        """
        program = parse_program(text)
        assert len(program) == 4
        reparsed = parse_program(str(program))
        assert reparsed == program

    def test_empty_program(self):
        assert len(parse_program("")) == 0
        assert len(parse_program("% only a comment")) == 0

    def test_example_5_1_parses(self, example_5_1):
        assert len(example_5_1) == 10
        assert example_5_1.idb_predicates() >= {"p_a", "p_b", "p_d"}

    def test_propositional_program(self):
        program = parse_program("p :- not q. q :- not p.")
        assert program.is_propositional
        assert len(program) == 2
