"""Query answering against a computed model.

The paper frames a logic program as a mapping from EDB instances to IDB
instances and a *query* as a question about that mapping (Section 2.5,
Example 2.1: "is there a path from a to b?", "what nodes have paths to a
but not to b?").  This module answers such queries against a
:class:`~repro.engine.solver.Solution`:

* ground queries get a three-valued verdict;
* queries with variables are answered by enumerating the substitutions that
  make every conjunct true (negative conjuncts must be false, mirroring the
  certain-answer reading of the well-founded model).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

from ..datalog.parser import parse_query
from ..datalog.terms import Constant, Term, Variable
from ..datalog.unification import match_atom
from ..exceptions import ParseError
from ..fixpoint.interpretations import TruthValue
from .solver import Solution

__all__ = ["QueryAnswer", "ask", "answers", "query_has_variables"]


def query_has_variables(text: str) -> bool:
    """Whether a textual conjunctive query mentions a variable.

    The CLI, the repl and ``GET /ask`` route on this between :func:`ask`
    and :func:`answers`; it parses the query exactly as they do, so a
    malformed query raises the same :class:`ParseError` either way.
    """
    return not all(literal.is_ground for literal in parse_query(text))


@dataclass(frozen=True)
class QueryAnswer:
    """One satisfying substitution for a conjunctive query."""

    binding: Mapping[Variable, Term]

    def __getitem__(self, name: str) -> object:
        for variable, term in self.binding.items():
            if variable.name == name:
                return term.value if isinstance(term, Constant) else term
        raise KeyError(name)

    def as_dict(self) -> dict[str, object]:
        return {
            variable.name: (term.value if isinstance(term, Constant) else term)
            for variable, term in self.binding.items()
        }


def ask(solution: Solution, query: str) -> TruthValue:
    """Answer a *ground* conjunctive query three-valuedly.

    The conjunction is evaluated with Kleene conjunction over the
    solution's interpretation (negative conjuncts invert the atom's value).
    """
    literals = parse_query(query)
    result = TruthValue.TRUE
    for literal in literals:
        if not literal.is_ground:
            raise ParseError(
                f"query literal {literal} has variables; use answers() for "
                "non-ground queries"
            )
        value = solution.value_of(literal.atom)
        if literal.negative:
            value = ~value
        result = result.conjoin(value)
    return result


def answers(solution: Solution, query: str) -> Iterator[QueryAnswer]:
    """Enumerate the substitutions making a conjunctive query *true*.

    Positive conjuncts are matched against the true atoms of the solution;
    negative conjuncts require the instantiated atom to be false (not
    merely undefined), giving certain answers under partial models.
    """
    literals = parse_query(query)
    positive = [lit for lit in literals if lit.positive]
    negative = [lit for lit in literals if lit.negative]

    # Each positive conjunct, at every depth of the backtracking search,
    # scans only its own predicate's true atoms, straight from the
    # solution's per-predicate view: the rest of the model is never read.
    view = solution.view
    candidates = [view.predicate(literal.atom.predicate).true_atoms for literal in positive]

    def extend(index: int, binding: dict[Variable, Term]) -> Iterator[dict[Variable, Term]]:
        if index == len(positive):
            yield binding
            return
        pattern = positive[index].atom
        for atom in candidates[index]:
            extended = match_atom(pattern, atom, binding)
            if extended is not None:
                yield from extend(index + 1, extended)

    seen: set[tuple] = set()
    for binding in extend(0, {}):
        grounded_negatives_ok = True
        for literal in negative:
            instantiated = literal.atom.substitute(binding)
            if not instantiated.is_ground:
                raise ParseError(
                    f"negative query literal {literal} is not ground after binding "
                    "the positive conjuncts"
                )
            if solution.value_of(instantiated) is not TruthValue.FALSE:
                grounded_negatives_ok = False
                break
        if not grounded_negatives_ok:
            continue
        key = tuple(sorted((v.name, str(t)) for v, t in binding.items()))
        if key in seen:
            continue
        seen.add(key)
        yield QueryAnswer(dict(binding))
