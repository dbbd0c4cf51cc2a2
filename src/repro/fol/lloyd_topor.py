"""Lloyd–Topor style transformation of general programs into normal programs.

Section 8.3 of the paper converts a system with first-order rule bodies into
a *normal* logic program by rewriting bodies into existential disjunctive
normal form and then repeatedly applying *elementary simplifications*
(Definition 8.4): a lowest existentially-quantified subformula is replaced
by a fresh auxiliary relation, whose defining rule is a normal rule.
Theorems 8.6 and 8.7 show that, for programs strict in the IDB, the
positive part of the AFP model of the transformed program agrees with the
original on the original relations — which is how alternating fixpoint
logic simulates full fixpoint logic.

This module implements the transformation constructively:

* universal quantifiers are eliminated (``∀x φ  ↦  ¬∃x ¬φ``);
* disjunctions become multiple rules;
* positive existential subformulas are flattened into the rule body;
* any other non-literal conjunct (in particular a negated existential
  subformula) is extracted into an auxiliary predicate over its free
  variables, whose polarity (globally positive / globally negative,
  Definition 8.5) is recorded;
* optionally, a ``dom/1`` guard literal is added for variables that would
  otherwise make the rule unsafe (the normal-program counterpart of
  quantifiers ranging over the finite domain).

Example 8.2 of the paper — the well-founded-nodes program — round-trips
through this transformation in the tests.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional

from ..datalog.atoms import Atom, Literal
from ..datalog.rules import Program, Rule
from ..datalog.terms import Constant, Term, Variable
from ..exceptions import FormulaError
from .formulas import (
    And,
    AtomFormula,
    Exists,
    FalseFormula,
    Forall,
    Formula,
    Not,
    Or,
    TrueFormula,
    free_variables,
    substitute_formula,
)
from .general_programs import GeneralProgram, GeneralRule
from .structures import FiniteStructure

__all__ = ["LloydToporResult", "lloyd_topor_transform", "domain_facts"]

DEFAULT_DOMAIN_PREDICATE = "dom"


@dataclass(frozen=True)
class LloydToporResult:
    """Outcome of the transformation.

    Attributes
    ----------
    program:
        The normal rules (no EDB facts; add a structure's facts with
        :func:`domain_facts` and ``structure.edb.as_program()`` before
        evaluating).
    auxiliary_polarity:
        Polarity of each auxiliary relation introduced: ``True`` for
        globally positive, ``False`` for globally negative
        (Definition 8.5).  The original IDB relations are globally positive
        by convention.
    original_idb:
        The relations of the source general program.
    domain_predicate:
        Name of the guard predicate added for safety, or ``None`` when no
        guards were needed / requested.
    """

    program: Program
    auxiliary_polarity: Mapping[str, bool]
    original_idb: frozenset[str]
    domain_predicate: Optional[str]

    def auxiliary_predicates(self) -> frozenset[str]:
        return frozenset(self.auxiliary_polarity)

    def globally_positive(self) -> frozenset[str]:
        positives = {name for name, polarity in self.auxiliary_polarity.items() if polarity}
        return frozenset(positives | self.original_idb)

    def globally_negative(self) -> frozenset[str]:
        return frozenset(
            name for name, polarity in self.auxiliary_polarity.items() if not polarity
        )


class _Transformer:
    """Stateful worker carrying the fresh-name counters and emitted rules."""

    def __init__(self, domain_predicate: Optional[str], aux_prefix: str):
        self.rules: list[Rule] = []
        self.aux_polarity: dict[str, bool] = {}
        self.domain_predicate = domain_predicate
        self.aux_prefix = aux_prefix
        self._aux_counter = 0
        self._rename_counter = 0
        self.used_domain_guard = False

    # ------------------------------------------------------------------ #
    def fresh_aux_name(self) -> str:
        self._aux_counter += 1
        return f"{self.aux_prefix}{self._aux_counter}"

    def fresh_variable(self, variable: Variable) -> Variable:
        self._rename_counter += 1
        return Variable(f"{variable.name}__{self._rename_counter}")

    # ------------------------------------------------------------------ #
    def eliminate_foralls(self, formula: Formula) -> Formula:
        """Rewrite ``∀x φ`` to ``¬∃x ¬φ`` everywhere and drop double
        negations created along the way."""
        if isinstance(formula, (TrueFormula, FalseFormula, AtomFormula)):
            return formula
        if isinstance(formula, Not):
            inner = self.eliminate_foralls(formula.sub)
            if isinstance(inner, Not):
                return inner.sub
            return Not(inner)
        if isinstance(formula, And):
            return And(tuple(self.eliminate_foralls(p) for p in formula.parts))
        if isinstance(formula, Or):
            return Or(tuple(self.eliminate_foralls(p) for p in formula.parts))
        if isinstance(formula, Exists):
            return Exists(formula.variables, self.eliminate_foralls(formula.sub))
        if isinstance(formula, Forall):
            inner = self.eliminate_foralls(formula.sub)
            return Not(Exists(formula.variables, Not(inner)))
        raise FormulaError(f"unknown formula node {formula!r}")

    def push_negations(self, formula: Formula) -> Formula:
        """Push negations down to atoms or existential subformulas (the
        EDNF step 2 of Section 8.3: ``¬`` is *not* pushed inside ``∃``)."""
        if isinstance(formula, (TrueFormula, FalseFormula, AtomFormula)):
            return formula
        if isinstance(formula, And):
            return And(tuple(self.push_negations(p) for p in formula.parts))
        if isinstance(formula, Or):
            return Or(tuple(self.push_negations(p) for p in formula.parts))
        if isinstance(formula, Exists):
            return Exists(formula.variables, self.push_negations(formula.sub))
        if isinstance(formula, Not):
            inner = formula.sub
            if isinstance(inner, TrueFormula):
                return FalseFormula()
            if isinstance(inner, FalseFormula):
                return TrueFormula()
            if isinstance(inner, AtomFormula):
                return formula
            if isinstance(inner, Not):
                return self.push_negations(inner.sub)
            if isinstance(inner, And):
                return Or(tuple(self.push_negations(Not(p)) for p in inner.parts))
            if isinstance(inner, Or):
                return And(tuple(self.push_negations(Not(p)) for p in inner.parts))
            if isinstance(inner, Exists):
                return Not(Exists(inner.variables, self.push_negations(inner.sub)))
            if isinstance(inner, Forall):
                raise FormulaError("forall should have been eliminated before push_negations")
        raise FormulaError(f"unknown formula node {formula!r}")

    # ------------------------------------------------------------------ #
    def define(self, head: Atom, body: Formula, positive_context: bool) -> None:
        """Emit normal rules making *head* equivalent to *body*.

        ``positive_context`` records whether the subformula being defined
        occurred under an even number of negations in the original program;
        it only feeds the globally-positive / globally-negative bookkeeping.
        """
        body = self.push_negations(self.eliminate_foralls(body))
        for conjuncts in self._disjuncts(body):
            self._emit_rule(head, conjuncts, positive_context)

    def _disjuncts(self, formula: Formula) -> Iterable[list[Formula]]:
        """Split a body into its top-level disjuncts, flattening positive
        existential quantifiers and conjunctions on the way down.

        Each yielded list is a conjunction of "simple" conjuncts: literals,
        negated existential subformulas, or truth constants.
        """
        if isinstance(formula, Or):
            for part in formula.parts:
                yield from self._disjuncts(part)
            return
        if isinstance(formula, Exists):
            # Body variables are implicitly existential in a normal rule, so
            # a positive ∃ is flattened after renaming its bound variables.
            renaming = {v: self.fresh_variable(v) for v in formula.variables}
            yield from self._disjuncts(substitute_formula(formula.sub, renaming))
            return
        if isinstance(formula, And):
            # Cartesian product of the disjuncts of each conjunct (the
            # distribution step of EDNF).
            parts_disjuncts = [list(self._disjuncts(p)) for p in formula.parts]
            for combination in itertools.product(*parts_disjuncts):
                merged: list[Formula] = []
                for chunk in combination:
                    merged.extend(chunk)
                yield merged
            return
        yield [formula]

    def _emit_rule(self, head: Atom, conjuncts: list[Formula], positive_context: bool) -> None:
        literals: list[Literal] = []
        for conjunct in conjuncts:
            if isinstance(conjunct, TrueFormula):
                continue
            if isinstance(conjunct, FalseFormula):
                return  # the whole disjunct is unsatisfiable; emit nothing
            if isinstance(conjunct, AtomFormula):
                literals.append(Literal(conjunct.atom, positive=True))
                continue
            if isinstance(conjunct, Not) and isinstance(conjunct.sub, AtomFormula):
                literals.append(Literal(conjunct.sub.atom, positive=False))
                continue
            if isinstance(conjunct, Not):
                # Negated complex subformula (typically ¬∃…): elementary
                # simplification — extract an auxiliary relation for the
                # positive version and negate it in this body.
                auxiliary = self._extract(conjunct.sub, positive_context=not positive_context)
                literals.append(Literal(auxiliary, positive=False))
                continue
            # A remaining positive complex conjunct (e.g. an ∃ nested under
            # nothing reachable by flattening): extract it positively.
            auxiliary = self._extract(conjunct, positive_context=positive_context)
            literals.append(Literal(auxiliary, positive=True))

        literals = self._add_domain_guards(head, literals)
        self.rules.append(Rule(head, tuple(literals)))

    def _extract(self, formula: Formula, positive_context: bool) -> Atom:
        """Create an auxiliary predicate for *formula* over its free
        variables and emit its defining rules; return the atom to use."""
        variables = sorted(free_variables(formula), key=lambda v: v.name)
        name = self.fresh_aux_name()
        self.aux_polarity[name] = positive_context
        head = Atom(name, tuple(variables))
        self.define(head, formula, positive_context)
        return head

    def _add_domain_guards(self, head: Atom, literals: list[Literal]) -> list[Literal]:
        """Prepend ``dom(V)`` guards for variables that no positive body
        literal binds, keeping the produced rules safe."""
        if self.domain_predicate is None:
            return literals
        bound: set[Variable] = set()
        for literal in literals:
            if literal.positive:
                bound.update(literal.variables())
        needing: list[Variable] = []
        seen: set[Variable] = set()
        for variable in list(head.variables()) + [
            v for literal in literals if literal.negative for v in literal.variables()
        ]:
            if variable not in bound and variable not in seen:
                seen.add(variable)
                needing.append(variable)
        if not needing:
            return literals
        self.used_domain_guard = True
        guards = [Literal(Atom(self.domain_predicate, (v,)), True) for v in needing]
        return guards + literals


def lloyd_topor_transform(
    program: GeneralProgram,
    domain_predicate: Optional[str] = DEFAULT_DOMAIN_PREDICATE,
    aux_prefix: str = "aux_",
) -> LloydToporResult:
    """Transform a general program into an equivalent normal program.

    The result contains only rules; evaluate it by attaching EDB facts (and
    the domain facts from :func:`domain_facts` when guards were emitted).
    """
    transformer = _Transformer(domain_predicate, aux_prefix)
    for rule in program:
        transformer.define(rule.head, rule.body, positive_context=True)
    return LloydToporResult(
        program=Program(transformer.rules),
        auxiliary_polarity=dict(transformer.aux_polarity),
        original_idb=frozenset(program.idb_predicates()),
        domain_predicate=domain_predicate if transformer.used_domain_guard else None,
    )


def domain_facts(
    structure: FiniteStructure,
    domain_predicate: str = DEFAULT_DOMAIN_PREDICATE,
) -> Program:
    """The ``dom(c)`` facts enumerating a structure's domain."""
    return Program(
        Rule(Atom(domain_predicate, (element,))) for element in structure.domain
    )
