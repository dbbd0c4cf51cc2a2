"""Terms of the logic-programming language.

A *term* is either a :class:`Constant`, a :class:`Variable`, or a
:class:`Compound` term built from a function symbol applied to argument
terms (``f(X, g(a))``).  Terms are immutable, hashable value objects: two
terms compare equal when they are structurally identical.

The Herbrand universe of a program (Section 3 of the paper) is the set of
all *ground* terms — terms containing no variables — that can be built from
the constants and function symbols appearing in the program.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Union

__all__ = [
    "Term",
    "Constant",
    "Variable",
    "Compound",
    "make_term",
    "KEYWORDS",
    "is_identifier",
    "is_variable_name",
    "term_depth",
    "term_constants",
    "term_functions",
    "term_variables",
]


# The lexical decisions of the rule syntax live here, once: the parser
# reads identifiers with them, :func:`make_term` coerces strings with them,
# and :class:`Constant` prints with them, so printed terms parse back.

#: Identifiers the rule syntax reserves: none of them reads as a name.
KEYWORDS = frozenset({"not"})

#: The characters that continue an identifier: ``str.isalnum`` or ``_``.
_IDENTIFIER = re.compile(r"\w+")


def is_identifier(text: str) -> bool:
    """Whether *text* is one identifier: a character for which
    ``str.isalpha`` is true, or ``_``, then ``str.isalnum`` characters or
    ``_``."""
    return (text[:1].isalpha() or text[:1] == "_") and _IDENTIFIER.fullmatch(text) is not None


def is_variable_name(text: str) -> bool:
    """Whether *text* names a variable: it starts with an uppercase letter
    or ``_``."""
    return text[:1].isupper() or text[:1] == "_"


def _reads_as_name(text: str) -> bool:
    """Whether *text*, written bare, reads back as the constant *text*: an
    identifier that is neither a variable name nor a keyword."""
    return is_identifier(text) and not is_variable_name(text) and text not in KEYWORDS


@dataclass(frozen=True, slots=True)
class Constant:
    """A constant symbol such as ``a``, ``42`` or ``"hello"``.

    The payload may be a string, an integer, or any hashable Python value;
    integers and strings cover everything the paper's examples need.

    A string prints bare when it reads back as the same constant, and
    quoted otherwise (``"Alice"``, ``"12"``, ``"a b"``), so printed rules
    and atoms parse back to equal ones.  A string holding both ``"`` and
    ``'`` has no spelling in the rule syntax, which has no escapes; it
    prints in double quotes and does not parse back.
    """

    value: object

    def __str__(self) -> str:
        value = self.value
        if isinstance(value, str) and not _reads_as_name(value):
            quote = "'" if '"' in value else '"'
            return f"{quote}{value}{quote}"
        return str(value)

    def __repr__(self) -> str:
        return f"Constant({self.value!r})"

    @property
    def is_ground(self) -> bool:
        return True


@dataclass(frozen=True, slots=True)
class Variable:
    """A logical variable.  By convention names start with an uppercase
    letter or an underscore, matching the paper's rule syntax."""

    name: str

    def __str__(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return f"Variable({self.name!r})"

    @property
    def is_ground(self) -> bool:
        return False


@dataclass(frozen=True, slots=True)
class Compound:
    """A compound term ``functor(arg1, ..., argN)`` with ``N >= 1``.

    Compound terms give the language function symbols; programs using them
    have an infinite Herbrand universe, which the grounder bounds with a
    configurable term-depth limit.
    """

    functor: str
    args: tuple["Term", ...]

    def __post_init__(self) -> None:
        if not self.args:
            raise ValueError("Compound terms need at least one argument; use Constant for atoms")
        object.__setattr__(self, "args", tuple(self.args))

    def __str__(self) -> str:
        args = ", ".join(str(a) for a in self.args)
        return f"{self.functor}({args})"

    def __repr__(self) -> str:
        return f"Compound({self.functor!r}, {self.args!r})"

    @property
    def arity(self) -> int:
        return len(self.args)

    @property
    def is_ground(self) -> bool:
        return all(arg.is_ground for arg in self.args)


Term = Union[Constant, Variable, Compound]


def make_term(value: object) -> Term:
    """Coerce a plain Python value into a :class:`Term`.

    Strings beginning with an uppercase letter or ``_`` become variables,
    everything else becomes a constant.  Existing terms pass through
    unchanged.  This is the convenience entry point used by the programmatic
    builder API.
    """
    if isinstance(value, (Constant, Variable, Compound)):
        return value
    if isinstance(value, str) and is_variable_name(value):
        return Variable(value)
    return Constant(value)


def term_variables(term: Term) -> Iterator[Variable]:
    """Yield every variable occurring in *term* (with repetition)."""
    if isinstance(term, Variable):
        yield term
    elif isinstance(term, Compound):
        for arg in term.args:
            yield from term_variables(arg)


def term_constants(term: Term) -> Iterator[Constant]:
    """Yield every constant occurring in *term* (with repetition)."""
    if isinstance(term, Constant):
        yield term
    elif isinstance(term, Compound):
        for arg in term.args:
            yield from term_constants(arg)


def term_functions(term: Term) -> Iterator[tuple[str, int]]:
    """Yield ``(functor, arity)`` for every function symbol in *term*."""
    if isinstance(term, Compound):
        yield (term.functor, term.arity)
        for arg in term.args:
            yield from term_functions(arg)


def term_depth(term: Term) -> int:
    """Return the nesting depth of *term*.

    Constants and variables have depth 0; ``f(a)`` has depth 1; ``f(g(a))``
    has depth 2.  The grounder uses this to bound Herbrand universes that
    would otherwise be infinite.
    """
    if isinstance(term, Compound):
        return 1 + max(term_depth(arg) for arg in term.args)
    return 0


def substitute_term(term: Term, binding: Mapping[Variable, Term]) -> Term:
    """Apply a variable binding to *term*, returning the substituted term."""
    if isinstance(term, Variable):
        return binding.get(term, term)
    if isinstance(term, Compound):
        return Compound(term.functor, tuple(substitute_term(a, binding) for a in term.args))
    return term


def enumerate_ground_terms(
    constants: Iterable[Constant],
    functions: Iterable[tuple[str, int]],
    max_depth: int,
) -> list[Term]:
    """Enumerate all ground terms up to *max_depth* nesting.

    With no function symbols this is simply the constant set; with function
    symbols the result grows exponentially in *max_depth*, so callers should
    keep the bound small (the paper's experiments are function-free).
    """
    constants = list(dict.fromkeys(constants))
    functions = list(dict.fromkeys(functions))
    layers: list[list[Term]] = [list(constants)]
    all_terms: list[Term] = list(constants)
    for _ in range(max_depth):
        previous: list[Term] = all_terms
        new_layer: list[Term] = []
        for functor, arity in functions:
            new_layer.extend(_combinations(functor, arity, previous))
        # Keep only genuinely new terms so repeated layers converge.
        fresh = [t for t in new_layer if t not in set(all_terms)]
        if not fresh:
            break
        layers.append(fresh)
        all_terms.extend(fresh)
    return all_terms


def _combinations(functor: str, arity: int, pool: list[Term]) -> Iterator[Compound]:
    """Yield all compound terms ``functor(t1..tN)`` with arguments in *pool*."""
    if arity == 0:
        return
    indices = [0] * arity
    if not pool:
        return
    while True:
        yield Compound(functor, tuple(pool[i] for i in indices))
        position = arity - 1
        while position >= 0:
            indices[position] += 1
            if indices[position] < len(pool):
                break
            indices[position] = 0
            position -= 1
        if position < 0:
            return
