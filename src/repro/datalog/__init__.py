"""Datalog substrate: terms, atoms, rules, parsing, grounding, I/O.

This subpackage is the language layer everything else builds on.  It knows
nothing about any particular semantics; it only provides the syntactic
objects (Section 3 of the paper) and the Herbrand instantiation machinery:
the relevant grounder (:mod:`.grounding`) runs each rule as join plans
compiled once per grounder over hash-indexed relations (:mod:`.joins`),
and matching and unification (:mod:`.unification`) serve the scan oracle
and the query answerers.
"""

from .atoms import Atom, Literal, Predicate, atom, neg, pos
from .builder import ProgramBuilder, build_program
from .grounding import (
    DEFAULT_GROUNDING_MATCHER,
    GROUNDING_MATCHERS,
    GroundingLimits,
    ground_program,
    herbrand_base,
    herbrand_universe,
    naive_ground,
    relevant_ground,
    stream_relevant_ground,
)
from .joins import Relation, RelationStore
from .io import (
    load_facts_csv,
    load_interpretation_json,
    load_program,
    save_facts_csv,
    save_interpretation_json,
    save_program,
)
from .parser import parse_atom, parse_literal, parse_program, parse_rule
from .rules import Program, Rule
from .terms import Compound, Constant, Term, Variable, make_term
from .unification import match_atom, unify_atoms, unify_terms

__all__ = [
    "Atom",
    "Literal",
    "Predicate",
    "atom",
    "pos",
    "neg",
    "ProgramBuilder",
    "build_program",
    "DEFAULT_GROUNDING_MATCHER",
    "GROUNDING_MATCHERS",
    "GroundingLimits",
    "ground_program",
    "herbrand_base",
    "herbrand_universe",
    "naive_ground",
    "relevant_ground",
    "stream_relevant_ground",
    "Relation",
    "RelationStore",
    "load_facts_csv",
    "load_interpretation_json",
    "load_program",
    "save_facts_csv",
    "save_interpretation_json",
    "save_program",
    "parse_atom",
    "parse_literal",
    "parse_program",
    "parse_rule",
    "Program",
    "Rule",
    "Compound",
    "Constant",
    "Term",
    "Variable",
    "make_term",
    "match_atom",
    "unify_atoms",
    "unify_terms",
]
