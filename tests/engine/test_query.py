"""Unit tests for query answering (Example 2.1's query styles)."""

import pytest

from repro.engine.query import answers, ask, query_has_variables
from repro.engine.solver import Solution, solve
from repro.exceptions import ParseError
from repro.fixpoint.interpretations import TruthValue
from repro.session import KnowledgeBase

GRAPH_TEXT = """
edge(a, b). edge(b, c). edge(c, d). edge(e, e).
node(a). node(b). node(c). node(d). node(e).
p(X, Y) :- edge(X, Y).
p(X, Y) :- edge(X, Z), p(Z, Y).
np(X, Y) :- node(X), node(Y), not p(X, Y).
s(X) :- node(X), not hasin(X).
hasin(Y) :- edge(X, Y).
"""


@pytest.fixture
def graph_solution():
    return solve(GRAPH_TEXT)


class TestAsk:
    def test_ground_positive_query(self, graph_solution):
        assert ask(graph_solution, "p(a, d)") is TruthValue.TRUE
        assert ask(graph_solution, "p(d, a)") is TruthValue.FALSE

    def test_conjunctive_query(self, graph_solution):
        # "What nodes have paths to a but not to b" style, grounded.
        assert ask(graph_solution, "p(a, c), np(a, a)") is TruthValue.TRUE
        assert ask(graph_solution, "p(a, c), p(c, a)") is TruthValue.FALSE

    def test_negated_conjunct(self, graph_solution):
        assert ask(graph_solution, "not p(d, a)") is TruthValue.TRUE
        assert ask(graph_solution, "not p(a, b)") is TruthValue.FALSE

    def test_undefined_propagates(self):
        solution = solve("move(x, y). move(y, x). wins(X) :- move(X, Y), not wins(Y).")
        assert ask(solution, "wins(x)") is TruthValue.UNDEFINED

    def test_variable_query_rejected(self, graph_solution):
        with pytest.raises(ParseError):
            ask(graph_solution, "p(X, a)")

    def test_empty_query_rejected(self, graph_solution):
        with pytest.raises(ParseError):
            ask(graph_solution, "   ")


class TestAnswers:
    def test_single_variable(self, graph_solution):
        reachable_from_a = {answer["Y"] for answer in answers(graph_solution, "p(a, Y)")}
        assert reachable_from_a == {"b", "c", "d"}

    def test_two_variables(self, graph_solution):
        pairs = {(answer["X"], answer["Y"]) for answer in answers(graph_solution, "edge(X, Y)")}
        assert ("a", "b") in pairs and len(pairs) == 4

    def test_conjunction_with_negation(self, graph_solution):
        # Is there a path from any source to d?  (Example 2.1's last query.)
        sources_reaching_d = {
            answer["X"] for answer in answers(graph_solution, "p(X, d), s(X)")
        }
        assert sources_reaching_d == {"a"}

    def test_negative_literal_filters(self, graph_solution):
        # Nodes with a path to c but not to e.
        results = {a["X"] for a in answers(graph_solution, "p(X, c), not p(X, e)")}
        assert results == {"a", "b"}

    def test_answer_as_dict_and_getitem(self, graph_solution):
        answer = next(iter(answers(graph_solution, "edge(a, Y)")))
        assert answer["Y"] == "b"
        assert answer.as_dict() == {"Y": "b"}
        with pytest.raises(KeyError):
            answer["Z"]

    def test_duplicate_bindings_deduplicated(self, graph_solution):
        bindings = list(answers(graph_solution, "p(a, Y), node(Y)"))
        as_tuples = [tuple(sorted(b.as_dict().items())) for b in bindings]
        assert len(as_tuples) == len(set(as_tuples))

    def test_unsafe_negative_query_rejected(self, graph_solution):
        with pytest.raises(ParseError):
            list(answers(graph_solution, "not p(X, Y)"))

    def test_session_answers_read_only_the_queried_relation(self, monkeypatch):
        kb = KnowledgeBase(
            "wins(X) :- move(X, Y), not wins(Y).",
            facts={"move": [("a", "b"), ("b", "a"), ("b", "c"), ("c", "d")]},
        )
        kb.retract_fact("move", "a", "b")
        solution = kb.solution

        def whole_model(self):
            raise AssertionError("answers() read every true atom of the model")

        monkeypatch.setattr(Solution, "true_atoms", whole_model)
        assert {answer["X"] for answer in answers(solution, "wins(X)")} == {"b", "c"}
        assert {answer["X"] for answer in kb.answers("wins(X), not move(X, a)")} == {"c"}


class TestQueryParsing:
    @pytest.mark.parametrize(
        ("query", "expected"),
        [
            ("wins(X)", True),
            ("wins(_X)", True),
            ("p(a), not q(_)", True),
            ("wins(c)", False),
            ('p("Abc")', False),
            ("p('X Y', 3)", False),
        ],
    )
    def test_query_has_variables_follows_the_parser(self, query, expected):
        assert query_has_variables(query) is expected

    def test_parentheses_inside_strings_do_not_split_conjuncts(self):
        solution = solve('p("("). q(a).')
        assert ask(solution, 'p("("), q(a)') is TruthValue.TRUE
        assert ask(solution, 'p(")"), q(a).') is TruthValue.FALSE

    def test_trailing_input_rejected(self, graph_solution):
        with pytest.raises(ParseError, match="trailing input after query"):
            ask(graph_solution, "p(a, b) p(b, c)")
