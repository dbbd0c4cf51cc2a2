"""Hypothesis strategies for random safe non-ground programs, shared by
the property suites: programs with negation, recursion (through negation
too) and multi-literal joins; their stratified and Horn counterparts; and
EDB fact sets over the same predicates and constants.  The programs hold
rules only; draw a fact set for the EDB."""

from __future__ import annotations

from hypothesis import strategies as st

from repro.datalog.atoms import Atom, Literal
from repro.datalog.parser import parse_program
from repro.datalog.rules import Program, Rule
from repro.datalog.terms import Constant, Variable

#: Predicate -> arity.  ``e``/``f`` are EDB-only in spirit, but rules may
#: derive them too and facts may land on the IDB predicates.
ARITY = {"e": 2, "f": 1, "p": 1, "q": 2, "r": 1}
HEADS = ("p", "q", "r", "f")
#: Predicate layers of the stratified programs: a rule reads its head's
#: layer or below positively and strictly lower layers negatively.
LAYER = {"e": 0, "f": 0, "q": 1, "p": 2, "r": 3}
VARIABLES = tuple(Variable(name) for name in ("X", "Y", "Z"))
CONSTANTS = tuple(Constant(value) for value in (1, 2, 3))


def _atom(draw, predicate: str, terms) -> Atom:
    return Atom(
        predicate, tuple(draw(st.sampled_from(terms)) for _ in range(ARITY[predicate]))
    )


@st.composite
def _rules(draw, layered: bool = False, negation: bool = True) -> Rule:
    """One safe rule: 1–3 positive literals (variables or constants), a
    head and 0–2 negative literals over the variables they bind.  A
    *layered* rule reads by :data:`LAYER`; without *negation* it is Horn."""
    head_predicate = draw(st.sampled_from(HEADS))
    readable = sorted(
        name for name in ARITY if not layered or LAYER[name] <= LAYER[head_predicate]
    )
    negatable = [
        name for name in readable if not layered or LAYER[name] < LAYER[head_predicate]
    ]
    positive = [
        _atom(draw, draw(st.sampled_from(readable)), VARIABLES + CONSTANTS[:1])
        for _ in range(draw(st.integers(min_value=1, max_value=3)))
    ]
    bound = tuple(
        sorted({term for atom in positive for term in atom.args if isinstance(term, Variable)},
               key=str)
    )
    terms = bound + CONSTANTS[:1] if bound else CONSTANTS[:1]
    head = _atom(draw, head_predicate, terms)
    most = 2 if negation and negatable else 0
    negative = [
        _atom(draw, draw(st.sampled_from(negatable)), terms)
        for _ in range(draw(st.integers(min_value=0, max_value=most)))
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


programs = st.builds(
    _program,
    st.lists(_rules(), min_size=1, max_size=5),
    st.sets(st.sampled_from(_CLASSIC)),
)

#: Stratified and Horn counterparts: the win–move rule is replaced by a
#: negation across layers (the Horn ones keep only positive recursion).
_STRATIFIED_CLASSIC = (
    "p(X) :- e(X, Y), not q(Y, Y).",
    "q(X, Y) :- e(X, Y).\nq(X, Z) :- q(X, Y), e(Y, Z).",
    "r(X) :- f(X), q(X, Y), not p(Y).",
)
stratified_programs = st.one_of(
    st.builds(
        _program,
        st.lists(_rules(layered=True), min_size=1, max_size=5),
        st.sets(st.sampled_from(_STRATIFIED_CLASSIC)),
    ),
    st.builds(
        _program,
        st.lists(_rules(layered=True, negation=False), min_size=1, max_size=5),
        st.sets(st.sampled_from(_STRATIFIED_CLASSIC[1:2])),
    ),
)

#: Fact pool: every EDB tuple over the constants, plus a few IDB atoms.
FACTS = [
    Atom("e", (a, b)) for a in CONSTANTS for b in CONSTANTS
] + [Atom("f", (a,)) for a in CONSTANTS] + [
    Atom("p", (CONSTANTS[0],)),
    Atom("q", (CONSTANTS[1], CONSTANTS[2])),
]
#: An EDB: up to 8 facts of the pool.
fact_sets = st.sets(st.sampled_from(FACTS), max_size=8)
