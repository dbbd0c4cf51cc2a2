"""Substitutions, matching and unification.

Two related operations on immutable terms:

* *matching* a rule literal (possibly containing variables) against a ground
  atom, producing a variable binding — what the scan grounding oracle and
  the query answerers do; and
* full *unification* of two terms or atoms, the symmetric operation.

A substitution is represented as a plain ``dict`` mapping
:class:`Variable` to :class:`Term`.  The production grounder uses neither:
it joins compiled plans over a flat slot list (:mod:`repro.datalog.joins`).
"""

from __future__ import annotations

from typing import Mapping, MutableMapping, Optional

from .atoms import Atom
from .terms import Compound, Constant, Term, Variable, substitute_term

__all__ = [
    "match_atom",
    "match_term",
    "unify_atoms",
    "unify_terms",
    "compose",
    "apply_substitution",
]

Substitution = dict[Variable, Term]


def apply_substitution(term: Term, substitution: Mapping[Variable, Term]) -> Term:
    """Apply *substitution* to *term* (a thin alias of ``substitute_term``)."""
    return substitute_term(term, substitution)


def compose(first: Mapping[Variable, Term], second: Mapping[Variable, Term]) -> Substitution:
    """Compose two substitutions: applying the result is equivalent to
    applying *first* and then *second*."""
    composed: Substitution = {
        var: substitute_term(term, second) for var, term in first.items()
    }
    for var, term in second.items():
        composed.setdefault(var, term)
    return composed


# --------------------------------------------------------------------- #
# Matching (one-sided unification against ground data)
# --------------------------------------------------------------------- #
def match_term(
    pattern: Term,
    ground: Term,
    binding: Optional[MutableMapping[Variable, Term]] = None,
) -> Optional[Substitution]:
    """Match *pattern* against the ground term *ground*.

    Returns an extended binding on success and ``None`` on failure.  The
    input *binding* is not mutated.
    """
    current: Substitution = dict(binding or {})
    if _match_term_into(pattern, ground, current):
        return current
    return None


def _match_term_into(pattern: Term, ground: Term, binding: Substitution) -> bool:
    if isinstance(pattern, Variable):
        bound = binding.get(pattern)
        if bound is None:
            binding[pattern] = ground
            return True
        return bound == ground
    if isinstance(pattern, Constant):
        return pattern == ground
    if isinstance(pattern, Compound):
        if not isinstance(ground, Compound):
            return False
        if pattern.functor != ground.functor or pattern.arity != ground.arity:
            return False
        return all(
            _match_term_into(p, g, binding) for p, g in zip(pattern.args, ground.args)
        )
    return False


def match_atom(
    pattern: Atom,
    ground: Atom,
    binding: Optional[Mapping[Variable, Term]] = None,
) -> Optional[Substitution]:
    """Match an atom pattern against a ground atom.

    The predicate names and arities must agree; argument terms are matched
    left to right, threading the binding through.
    """
    if pattern.predicate != ground.predicate or pattern.arity != ground.arity:
        return None
    current: Substitution = dict(binding or {})
    for pattern_arg, ground_arg in zip(pattern.args, ground.args):
        if not _match_term_into(pattern_arg, ground_arg, current):
            return None
    return current


# --------------------------------------------------------------------- #
# Full unification
# --------------------------------------------------------------------- #
def unify_terms(
    left: Term,
    right: Term,
    binding: Optional[Mapping[Variable, Term]] = None,
) -> Optional[Substitution]:
    """Unify two terms, returning a most general unifier or ``None``.

    Uses the standard occurs-check-free Robinson algorithm with an explicit
    occurs check added (the library never relies on rational trees).  The
    result is idempotent: applying it once to either term yields their
    common instance.
    """
    current: Substitution = dict(binding or {})
    if _unify_into(left, right, current):
        return _resolved(current)
    return None


def _walk(term: Term, binding: Substitution) -> Term:
    """Follow variable bindings until reaching a non-variable or an unbound
    variable."""
    while isinstance(term, Variable) and term in binding:
        term = binding[term]
    return term


def _resolve(term: Term, binding: Substitution) -> Term:
    """Substitute *binding* into *term* until no bound variable is left."""
    term = _walk(term, binding)
    if isinstance(term, Compound):
        return Compound(term.functor, tuple(_resolve(arg, binding) for arg in term.args))
    return term


def _resolved(binding: Substitution) -> Substitution:
    """Turn the triangular *binding* built by unification (``X -> Y``,
    ``Y -> a``) into an idempotent one (``X -> a``, ``Y -> a``)."""
    return {var: _resolve(term, binding) for var, term in binding.items()}


def _occurs(variable: Variable, term: Term, binding: Substitution) -> bool:
    term = _walk(term, binding)
    if term == variable:
        return True
    if isinstance(term, Compound):
        return any(_occurs(variable, arg, binding) for arg in term.args)
    return False


def _unify_into(left: Term, right: Term, binding: Substitution) -> bool:
    left = _walk(left, binding)
    right = _walk(right, binding)
    if left == right:
        return True
    if isinstance(left, Variable):
        if _occurs(left, right, binding):
            return False
        binding[left] = right
        return True
    if isinstance(right, Variable):
        if _occurs(right, left, binding):
            return False
        binding[right] = left
        return True
    if isinstance(left, Compound) and isinstance(right, Compound):
        if left.functor != right.functor or left.arity != right.arity:
            return False
        return all(_unify_into(a, b, binding) for a, b in zip(left.args, right.args))
    return False


def unify_atoms(
    left: Atom,
    right: Atom,
    binding: Optional[Mapping[Variable, Term]] = None,
) -> Optional[Substitution]:
    """Unify two atoms, returning a most general unifier or ``None``."""
    if left.predicate != right.predicate or left.arity != right.arity:
        return None
    current: Substitution = dict(binding or {})
    for left_arg, right_arg in zip(left.args, right.args):
        if not _unify_into(left_arg, right_arg, current):
            return None
    return _resolved(current)
