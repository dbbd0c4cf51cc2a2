"""Rule-index construction and caching."""

from repro.core.context import build_context
from repro.datalog.atoms import atom
from repro.datalog.parser import parse_program
from repro.evaluation.indexes import build_index, get_index

PROGRAM = parse_program(
    """
    fact_atom.
    p :- q, r.
    q :- r, r, not s.
    s :- not p, not q.
    r :- fact_atom.
    """
)


class TestBuildIndex:
    def test_counts_are_per_distinct_atom(self):
        context = build_context(PROGRAM)
        index = build_index(context)
        by_head = {str(index.heads[i]): i for i in range(index.rule_count)}
        # q :- r, r, not s: the duplicated r counts once.
        assert index.positive_counts[by_head["q"]] == 1
        assert index.negative_counts[by_head["q"]] == 1
        assert index.positive_counts[by_head["p"]] == 2
        assert index.negative_counts[by_head["s"]] == 2

    def test_definite_rules_have_no_negative_body(self):
        context = build_context(PROGRAM)
        index = build_index(context)
        for rule in index.definite_rules:
            assert index.negative_counts[rule] == 0
        non_definite = set(range(index.rule_count)) - set(index.definite_rules)
        assert all(index.negative_counts[rule] > 0 for rule in non_definite)

    def test_negative_watchers_cover_every_negative_literal(self):
        context = build_context(PROGRAM)
        index = build_index(context)
        for rule_id, rule in enumerate(context.rules):
            for atom in set(rule.negative_body):
                assert rule_id in index.negative_watchers[atom]
        # And nothing more: total entries match the distinct negative counts.
        entries = sum(len(v) for v in index.negative_watchers.values())
        assert entries == sum(index.negative_counts)

    def test_positive_watchers_cover_every_positive_literal(self):
        context = build_context(PROGRAM)
        index = build_index(context)
        for rule_id, rule in enumerate(context.rules):
            for body_atom in set(rule.positive_body):
                assert rule_id in index.watchers[body_atom]
        entries = sum(len(v) for v in index.watchers.values())
        assert entries == sum(index.positive_counts)

    def test_positive_watchers_list_a_rule_once_per_distinct_atom(self):
        context = build_context(parse_program("p :- q, q. r :- q, p, q."))
        index = build_index(context)
        assert index.watchers == {atom("q"): (0, 1), atom("p"): (1,)}
        assert index.positive_counts == (1, 2)

    def test_statistics_shape(self):
        context = build_context(PROGRAM)
        stats = build_index(context).statistics()
        assert stats["rules"] == len(context.rules)
        assert stats["definite_rules"] <= stats["rules"]
        assert stats["watch_entries"] >= stats["watched_atoms"]


class TestGetIndex:
    def test_index_is_cached_per_context(self):
        context = build_context(PROGRAM)
        assert get_index(context) is get_index(context)

    def test_distinct_contexts_get_distinct_indexes(self):
        first = build_context(PROGRAM)
        second = build_context(PROGRAM)
        assert get_index(first) is not get_index(second)

    def test_empty_program(self):
        context = build_context(parse_program("just_a_fact."))
        index = get_index(context)
        assert index.rule_count == 0
        assert index.definite_rules == ()
