"""Parser for the concrete rule syntax.

The textual syntax follows the paper's examples, adapted to ASCII:

* a rule is ``head :- lit1, lit2, ..., litN.`` (``<-`` is accepted as a
  synonym for ``:-``);
* a fact is ``head.``;
* negation is written ``not p(X)`` (``\\+`` and ``~`` are accepted);
* an identifier starts with a letter (``str.isalpha``) or ``_`` and
  continues with letters, digits (``str.isalnum``) or ``_``;
* variables are identifiers starting with an uppercase letter or ``_``;
  constants are the other identifiers, integers (an optional ``-`` and
  decimal digits), or strings quoted with ``"`` or ``'`` (which may span
  lines and have no escapes);
* compound terms ``f(a, X)`` are allowed inside atom arguments;
* ``%`` and ``#`` start comments that run to the end of the line.

One regular expression splits the whole text into token strings; a small
recursive-descent parser walks them.  Within one parse, every occurrence
of a constant or variable token is one shared object, and so is every
occurrence of an atom over them, so later set and dict probes hit
CPython's identity shortcut.  Errors report 1-based line/column
positions, computed from the token's offset only when an error is raised.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from ..exceptions import ParseError
from .atoms import Atom, Literal
from .rules import Program, Rule
from .terms import KEYWORDS, Compound, Constant, Term, Variable, is_identifier, is_variable_name

__all__ = [
    "parse_program",
    "parse_rule",
    "parse_atom",
    "parse_literal",
    "parse_query",
    "tokenize",
]


# --------------------------------------------------------------------- #
# Scanner
# --------------------------------------------------------------------- #
#: Every match is the whitespace before one token, then the token (group
#: 1).  Comments come back as tokens too; :func:`_scan` drops them.  The
#: last alternative matches any other single character, so the scan never
#: skips text: a character no token starts with, or the opening quote of
#: an unterminated string, comes back as a one-character token that
#: :func:`_kind` rejects.  ``\w`` is exactly ``str.isalnum`` or ``_``;
#: which character may *start* an identifier is checked by :func:`_kind`
#: (with :func:`~repro.datalog.terms.is_identifier`), because no regex
#: class equals ``str.isalpha``.  The text is scanned without its trailing
#: whitespace, so every match ends on a token.
_SCANNER = re.compile(
    r"""[ \t\r\n]*
        ( -?\d+ | \w+ | [(),.] | :- | <- | \\\+ | "[^"]*" | '[^']*'
        | [%#][^\n]* | [^ \t\r\n] )""",
    re.VERBOSE,
)

_WHITESPACE = " \t\r\n"

_OPERATORS = {
    "(": "lparen",
    ")": "rparen",
    ",": "comma",
    ".": "dot",
    ":-": "implies",
    "<-": "implies",
    "~": "not",
    "\\+": "not",
    # A keyword's kind is its own text, so no keyword reads as a name.
    **{keyword: keyword for keyword in KEYWORDS},
}

_NEGATIONS = frozenset(token for token, kind in _OPERATORS.items() if kind == "not")


def _kind(token: str) -> str | None:
    """The token kind of a scanned token string, or ``None`` for a lexical
    error: a character no token starts with, or an unterminated string."""
    kind = _OPERATORS.get(token)
    if kind is not None:
        return kind
    first = token[0]
    if first in "\"'":
        return "string" if len(token) > 1 else None
    if first.isdecimal() or (first == "-" and len(token) > 1):
        return "number"
    if is_identifier(token):
        return "name"
    return None


def _shown(token: str) -> str:
    """A token as error messages quote it: strings without their quotes."""
    return token[1:-1] if _kind(token) == "string" else token


def _scan(text: str) -> list[str]:
    """The token strings of *text*, comments dropped."""
    tokens = _SCANNER.findall(text.rstrip(_WHITESPACE))
    if "%" in text or "#" in text:
        return [token for token in tokens if token[0] not in "%#"]
    return tokens


@dataclass(frozen=True)
class Token:
    """A lexical token with its source position (1-based)."""

    kind: str
    value: str
    line: int
    column: int


def tokenize(text: str) -> list[Token]:
    """Split *text* into tokens, skipping whitespace and comments.

    Raises :class:`ParseError` at the first character that starts no
    token.  String tokens carry their contents without the quotes.
    """
    tokens: list[Token] = []
    line = 1
    scanned = 0
    for match in _SCANNER.finditer(text.rstrip(_WHITESPACE)):
        value = match.group(1)
        if value[0] in "%#":
            continue
        offset = match.start(1)
        line += text.count("\n", scanned, offset)
        scanned = offset
        column = offset - text.rfind("\n", 0, offset)
        kind = _kind(value)
        if kind is None:
            if value[0] in "\"'":
                raise ParseError("unterminated string literal", line, column)
            raise ParseError(f"unexpected character {value[0]!r}", line, column)
        tokens.append(Token(kind, value[1:-1] if kind == "string" else value, line, column))
    return tokens


# --------------------------------------------------------------------- #
# Recursive-descent parser
# --------------------------------------------------------------------- #
#: Appended after the last token, so the parser can look one token ahead
#: without a bounds check; no scanned token is empty.
_END = ""


class _Parser:
    """Cursor over the token strings of one text, plus the intern tables
    that make the terms one token spells, and equal atoms over them, one
    object within this parse.

    Atoms are keyed by the ``id`` of their arguments, which is cheaper
    than hashing them.  Every argument is held by the term table or by an
    interned atom until the parse ends, so no id is reused; an atom with a
    compound argument (built afresh each time) is simply never shared.
    """

    def __init__(self, text: str):
        self._text = text
        self._tokens = _scan(text)
        self._end = len(self._tokens)
        self._tokens.append(_END)
        self._position = 0
        self._terms: dict[str, Term] = {}
        self._atoms: dict[tuple, Atom] = {}
        self._predicates: set[str] = set()

    @property
    def exhausted(self) -> bool:
        return self._position >= self._end

    def error(self, message: str, index: int | None = None) -> ParseError:
        """A :class:`ParseError` at token *index* (no position when
        ``None``).  A lexical error anywhere in the text is reported
        instead: the whole text must scan before any of it parses."""
        tokens = tokenize(self._text)
        if index is None:
            return ParseError(message)
        return ParseError(message, tokens[index].line, tokens[index].column)

    def _expected(self, kind: str, index: int) -> ParseError:
        token = self._tokens[index]
        if token == _END:
            return self.error(f"expected {kind}, found end of input")
        return self.error(f"expected {kind}, found {_shown(token)!r}", index)

    # ------------------------------------------------------------------ #
    def parse_program(self) -> Program:
        rules: list[Rule] = []
        while not self.exhausted:
            rules.append(self.parse_rule())
        return Program(rules)

    def parse_rule(self) -> Rule:
        head = self.parse_atom()
        if self._tokens[self._position] in (":-", "<-"):
            self._position += 1
            body = self.parse_body()
        else:
            body = ()
        if self._tokens[self._position] != ".":
            raise self._expected("dot", self._position)
        self._position += 1
        return Rule(head, body)

    def parse_body(self) -> tuple[Literal, ...]:
        literals = [self.parse_literal()]
        while self._tokens[self._position] == ",":
            self._position += 1
            literals.append(self.parse_literal())
        return tuple(literals)

    def parse_literal(self) -> Literal:
        if self._tokens[self._position] in _NEGATIONS:
            self._position += 1
            return Literal(self.parse_atom(), positive=False)
        return Literal(self.parse_atom(), positive=True)

    def parse_atom(self) -> Atom:
        start = self._position
        name = self._tokens[start]
        if name not in self._predicates:
            self._check_predicate(start)
        if self._tokens[start + 1] == "(":
            self._position = start + 2
            args = self._arguments()
        else:
            self._position = start + 1
            args = ()
        key = (name, *map(id, args))
        atom = self._atoms.get(key)
        if atom is None:
            atom = self._atoms[key] = Atom(name, args)
        return atom

    def _check_predicate(self, index: int) -> None:
        name = self._tokens[index]
        if name == _END or _kind(name) != "name":
            raise self._expected("name", index)
        if is_variable_name(name):
            raise self.error(
                f"atom predicate {name!r} must not start with an uppercase letter", index
            )
        self._predicates.add(name)

    def _arguments(self) -> tuple[Term, ...]:
        """The terms after an opening parenthesis, through the closing one."""
        args = [self.parse_term()]
        while True:
            index = self._position
            token = self._tokens[index]
            self._position = index + 1
            if token == ")":
                return tuple(args)
            if token == _END:
                raise self.error("unexpected end of input")
            if token != ",":
                raise self.error(f"expected ',' or ')', found {_shown(token)!r}", index)
            args.append(self.parse_term())

    def parse_term(self) -> Term:
        index = self._position
        token = self._tokens[index]
        term = self._terms.get(token)
        if term is None:
            term = self._new_term(index)
        self._position = index + 1
        if self._tokens[index + 1] == "(" and type(term) is Constant and _kind(token) == "name":
            self._position = index + 2
            return Compound(token, self._arguments())
        return term

    def _new_term(self, index: int) -> Term:
        """Build and remember the simple term token *index* spells."""
        token = self._tokens[index]
        if token == _END:
            raise self.error("unexpected end of input")
        kind = _kind(token)
        if kind == "name" and is_variable_name(token):
            term: Term = Variable(token)
        elif kind == "name":
            term = Constant(token)
        elif kind == "number":
            term = Constant(int(token))
        elif kind == "string":
            term = Constant(token[1:-1])
        else:
            raise self.error(f"expected a term, found {_shown(token)!r}", index)
        self._terms[token] = term
        return term

    def parse_query(self) -> tuple[Literal, ...]:
        if self.exhausted:
            raise self.error("empty query")
        literals = self.parse_body()
        if self._tokens[self._position] == ".":
            self._position += 1
        return literals

    def finish(self, what: str) -> None:
        if not self.exhausted:
            raise self.error(f"trailing input after {what}")


# --------------------------------------------------------------------- #
# Public entry points
# --------------------------------------------------------------------- #
def parse_program(text: str) -> Program:
    """Parse a complete program (zero or more rules)."""
    return _Parser(text).parse_program()


def parse_rule(text: str) -> Rule:
    """Parse a single rule or fact, requiring the whole input to be consumed."""
    parser = _Parser(text)
    rule = parser.parse_rule()
    parser.finish("rule")
    return rule


def parse_atom(text: str) -> Atom:
    """Parse a single atom (no trailing period)."""
    parser = _Parser(text)
    result = parser.parse_atom()
    parser.finish("atom")
    return result


def parse_literal(text: str) -> Literal:
    """Parse a single literal (possibly negated, no trailing period)."""
    parser = _Parser(text)
    result = parser.parse_literal()
    parser.finish("literal")
    return result


def parse_query(text: str) -> tuple[Literal, ...]:
    """Parse a conjunctive query: literals separated by commas, optionally
    ended by a period."""
    parser = _Parser(text)
    literals = parser.parse_query()
    parser.finish("query")
    return literals
