"""Tests for the streaming workload generators and churn streams."""

from repro.config import EngineConfig
from repro.datalog.atoms import Atom, Constant
from repro.datalog.rules import Program
from repro.engine.solver import solve_configured
from repro.session import KnowledgeBase
from repro.workloads import (
    StreamOp,
    access_policy_program,
    access_policy_stream,
    churn_stream,
    social_graph_program,
    social_graph_stream,
)

WFS = EngineConfig(semantics="well-founded")


def _ground(predicate, *values):
    return Atom(predicate, tuple(Constant(value) for value in values))


class TestGeneratorDeterminism:
    def test_social_graph_same_seed_identical(self):
        first = social_graph_program(20, extra_edges=8, back_edges=4, seed=5)
        second = social_graph_program(20, extra_edges=8, back_edges=4, seed=5)
        assert list(first) == list(second)

    def test_social_graph_seed_changes_program(self):
        first = social_graph_program(20, extra_edges=8, back_edges=4, seed=5)
        second = social_graph_program(20, extra_edges=8, back_edges=4, seed=6)
        assert list(first) != list(second)

    def test_access_policy_same_seed_identical(self):
        first = access_policy_program(15, seed=3)
        second = access_policy_program(15, seed=3)
        assert list(first) == list(second)

    def test_access_policy_seed_changes_program(self):
        assert list(access_policy_program(15, seed=3)) != list(
            access_policy_program(15, seed=4)
        )


class TestGeneratorSemantics:
    def test_social_graph_reachability(self):
        # Nobody muted: the chain makes everyone past the seed reachable,
        # so every person is an influencer and nobody is isolated.
        program = social_graph_program(6)
        kb = KnowledgeBase(program, config=WFS)
        assert len(set(kb.query("influencer"))) == 6
        assert not set(kb.query("isolated"))
        kb.assert_fact(_ground("muted", 3))
        assert (3,) not in set(kb.query("influencer"))
        assert (4,) in set(kb.query("influencer"))  # reach survives muting

    def test_access_policy_admin_override(self):
        program = access_policy_program(10, groups=3, resources=5, seed=1)
        kb = KnowledgeBase(program, config=WFS)
        admins = {row[0] for row in kb.query("admin")}
        access = set(kb.query("access"))
        resources = {row[0] for row in kb.query("resource")}
        for admin in admins:
            for resource in resources:
                assert (admin, resource) in access


class TestChurnStream:
    def test_every_operation_is_a_real_mutation(self):
        pool = [_ground("edge", i) for i in range(6)]
        present = {pool[0], pool[1]}
        simulated = set(present)
        ops = churn_stream(pool, present, steps=50, seed=9)
        assert len(ops) == 50
        for op in ops:
            if op.kind == "assert":
                assert op.atom not in simulated
                simulated.add(op.atom)
            else:
                assert op.atom in simulated
                simulated.discard(op.atom)
        assert present == simulated  # caller's set tracks the final state

    def test_streams_deterministic_per_seed(self):
        for factory in (
            lambda seed: social_graph_stream(15, extra_edges=5, steps=30, seed=seed),
            lambda seed: access_policy_stream(10, steps=30, seed=seed),
        ):
            program_a, ops_a = factory(2)
            program_b, ops_b = factory(2)
            assert list(program_a) == list(program_b)
            assert ops_a == ops_b
            _, ops_c = factory(3)
            assert ops_a != ops_c

    def test_stream_replays_cleanly_through_a_session(self):
        program, ops = access_policy_stream(8, steps=25, seed=4)
        kb = KnowledgeBase(program, config=WFS)
        for op in ops:
            (kb.assert_fact if op.kind == "assert" else kb.retract_fact)(op.atom)
        scratch = solve_configured(Program.union(kb.store.as_program(), kb.rules), WFS)
        assert kb.solution.interpretation == scratch.interpretation

    def test_stream_op_is_frozen(self):
        op = StreamOp("assert", _ground("p", 1))
        try:
            op.kind = "retract"
            raised = False
        except AttributeError:
            raised = True
        assert raised
