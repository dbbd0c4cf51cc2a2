"""Property: incremental grounding is invisible on every true and
undefined atom.

Sessions over random safe *non-ground* programs — negation, recursion,
multi-literal joins — take the delta path: each refresh grounds only the
rule instances the newly asserted facts enable, and retracted facts keep
theirs.  Under random assert/retract/batch churn, on both the in-memory
and the durable SQLite store, every refresh must leave the session with

* ``last_update.mode == "delta"``;
* true and undefined atoms byte-identical to a from-scratch
  ``solve_configured`` of the current program;
* a base that contains the scratch base, every extra atom being false.

Fixed regressions pin the cases the envelope bookkeeping is easiest to get
wrong: a fact retracted, joined against while absent, then re-asserted; a
retracted fact that stays derivable meeting a new join partner; and store
compaction renumbering rows between two refreshes.
"""

from __future__ import annotations

import pytest

try:
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st
except ImportError:  # pragma: no cover - environment guard
    pytest.skip("hypothesis is not installed", allow_module_level=True)

from repro.config import EngineConfig
from repro.datalog.atoms import Atom, Literal
from repro.datalog.parser import parse_program
from repro.datalog.rules import Program, Rule
from repro.datalog.terms import Constant, Variable
from repro.engine.solver import solve_configured
from repro.session import KnowledgeBase
from repro.storage import MemoryStore, SqliteStore

WFS = EngineConfig(semantics="well-founded")

#: Predicate -> arity.  ``e``/``f`` are EDB-only in spirit, but rules may
#: derive them too and facts may land on the IDB predicates.
ARITY = {"e": 2, "f": 1, "p": 1, "q": 2, "r": 1}
HEADS = ("p", "q", "r", "f")
VARIABLES = tuple(Variable(name) for name in ("X", "Y", "Z"))
CONSTANTS = tuple(Constant(value) for value in (1, 2, 3))


def _atom(draw, predicate: str, terms) -> Atom:
    return Atom(
        predicate, tuple(draw(st.sampled_from(terms)) for _ in range(ARITY[predicate]))
    )


@st.composite
def _rules(draw) -> Rule:
    """One safe rule: 1–3 positive literals (variables or constants), a
    head and 0–2 negative literals over the variables they bind."""
    positive = [
        _atom(draw, draw(st.sampled_from(sorted(ARITY))), VARIABLES + CONSTANTS[:1])
        for _ in range(draw(st.integers(min_value=1, max_value=3)))
    ]
    bound = tuple(
        sorted({term for atom in positive for term in atom.args if isinstance(term, Variable)},
               key=str)
    )
    terms = bound + CONSTANTS[:1] if bound else CONSTANTS[:1]
    head = _atom(draw, draw(st.sampled_from(HEADS)), terms)
    negative = [
        _atom(draw, draw(st.sampled_from(sorted(ARITY))), terms)
        for _ in range(draw(st.integers(min_value=0, max_value=2)))
    ]
    body = [Literal(atom) for atom in positive]
    body.extend(Literal(atom, positive=False) for atom in negative)
    return Rule(head, tuple(body))


#: Classic shapes mixed into the random rules so recursion through
#: negation (the paper's win–move rule), positive recursion and joins
#: across strata are always well represented.
_CLASSIC = (
    "p(X) :- e(X, Y), not p(Y).",
    "q(X, Y) :- e(X, Y).\nq(X, Z) :- q(X, Y), e(Y, Z).",
    "r(X) :- f(X), q(X, Y), not p(Y).",
)



def _program(random_rules: list[Rule], classic: set[str]) -> Program:
    return Program.union(
        *(parse_program(text) for text in sorted(classic)), Program(random_rules)
    )


_programs = st.builds(
    _program,
    st.lists(_rules(), min_size=1, max_size=5),
    st.sets(st.sampled_from(_CLASSIC)),
)

#: Fact pool: every EDB tuple over the constants, plus a few IDB atoms.
_FACTS = [
    Atom("e", (a, b)) for a in CONSTANTS for b in CONSTANTS
] + [Atom("f", (a,)) for a in CONSTANTS] + [
    Atom("p", (CONSTANTS[0],)),
    Atom("q", (CONSTANTS[1], CONSTANTS[2])),
]

_single = st.tuples(st.booleans(), st.sampled_from(_FACTS))
_steps = st.lists(
    st.one_of(_single.map(lambda op: [op]), st.lists(_single, min_size=1, max_size=4)),
    min_size=2,
    max_size=10,
)
_initial = st.sets(st.sampled_from(_FACTS), max_size=8)


def _verdicts(solution) -> tuple[bytes, bytes]:
    """True and undefined atoms, canonically serialised."""
    model = solution.interpretation
    true = sorted(str(atom) for atom in model.true_atoms)
    undefined = sorted(
        str(atom)
        for atom in solution.base
        if atom not in model.true_atoms and atom not in model.false_atoms
    )
    return "\n".join(true).encode(), "\n".join(undefined).encode()


def _check(kb: KnowledgeBase) -> None:
    solution = kb.solution
    if kb.epoch > 1:
        assert kb.last_update.mode == "delta", kb.last_update.describe()
    scratch = solve_configured(kb._program(), kb.config)
    assert _verdicts(solution) == _verdicts(scratch)
    assert solution.base >= scratch.base
    for atom in solution.base - scratch.base:
        assert atom in solution.interpretation.false_atoms, atom


def _run(kb: KnowledgeBase, steps) -> None:
    _check(kb)
    for step in steps:
        if len(step) == 1:
            insert, atom = step[0]
            (kb.assert_fact if insert else kb.retract_fact)(atom)
        else:
            with kb.batch():
                for insert, atom in step:
                    (kb.assert_fact if insert else kb.retract_fact)(atom)
        _check(kb)


class TestIncrementalGroundingLockstep:
    @given(program=_programs, initial=_initial, steps=_steps)
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_memory_store(self, program, initial, steps):
        kb = KnowledgeBase(program, facts=initial, store=MemoryStore(), config=WFS)
        assert kb.is_incremental
        _run(kb, steps)

    @given(program=_programs, initial=_initial, steps=_steps)
    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_sqlite_store(self, program, initial, steps):
        with KnowledgeBase(
            program, facts=initial, store=SqliteStore(":memory:"), config=WFS
        ) as kb:
            _run(kb, steps)

    @given(program=_programs, initial=_initial, steps=_steps)
    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_kernel_engine(self, program, initial, steps):
        config = EngineConfig(semantics="well-founded", engine="kernel")
        kb = KnowledgeBase(program, facts=initial, config=config)
        _run(kb, steps)


class TestRegressions:
    def test_fact_retracted_while_a_join_partner_arrives(self):
        # a(1,2) leaves, b(2,3) arrives while it is absent, a(1,2) returns:
        # the instance joining the two must exist when both are present.
        kb = KnowledgeBase(
            "h(X, Z) :- a(X, Y), b(Y, Z).", facts={"a": [(1, 2)]}, config=WFS
        )
        _check(kb)
        kb.retract_fact("a", 1, 2)
        _check(kb)
        kb.assert_fact("b", 2, 3)
        _check(kb)
        kb.assert_fact("a", 1, 2)
        _check(kb)
        assert kb.is_true("h", 1, 3)

    def test_retracted_fact_that_stays_derivable_still_joins(self):
        # a(1) is a fact and derivable from c(1); retracting the fact keeps
        # it in the envelope, so b(1) arriving later must still join it.
        kb = KnowledgeBase(
            "a(X) :- c(X).\nh(X) :- a(X), b(X).", facts={"a": [(1,)]}, config=WFS
        )
        _check(kb)
        kb.assert_fact("c", 1)
        _check(kb)
        kb.retract_fact("a", 1)
        _check(kb)
        kb.assert_fact("b", 1)
        _check(kb)
        assert kb.is_true("h", 1)

    def test_store_compaction_between_refreshes(self):
        store = MemoryStore()
        kb = KnowledgeBase(
            "h(X, Z) :- e(X, Y), e(Y, Z).\nw(X) :- e(X, Y), not w(Y).",
            facts={"e": [(1, 2), (2, 3)]},
            store=store,
            config=WFS,
        )
        _check(kb)
        # Transient churn leaves enough tombstones to compact e/2, which
        # renumbers its rows before the next refresh joins against them.
        for i in range(100):
            kb.assert_fact("e", 100 + i, 200 + i)
            kb.retract_fact("e", 100 + i, 200 + i)
        kb.assert_fact("e", 3, 4)
        assert store.relation("e", 2).sequence_bound < 103  # compacted
        _check(kb)
        assert kb.is_true("h", 2, 4)
        kb.assert_fact("e", 4, 5)
        _check(kb)
        assert kb.is_true("h", 3, 5)
        assert kb.statistics()["refresh_modes"] == {"initial": 1, "delta": 2}
