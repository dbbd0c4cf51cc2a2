"""Hash-join relations and compiled join plans for bottom-up grounding.

The grounder's inner loop is a conjunctive join: given a rule body
``b1, ..., bn`` and a growing set of derivable ground atoms, enumerate
every variable binding under which all conjuncts are satisfied.  The
original matcher scanned the whole per-predicate fact list for every
conjunct and threaded a substitution dict through each match; this module
provides what production bottom-up engines use instead (Soufflé's
specialised relational-algebra machine, gringo's per-rule instantiators):

* :class:`Relation` — the ground facts of one ``(predicate, arity)``
  signature, stored in insertion order with **lazy hash indexes keyed on
  bound-argument positions**.  A probe with ``k`` bound argument positions
  builds (once, then maintains incrementally) a dict from the projected
  key tuple to the matching row ids, so subsequent probes cost O(1) plus
  the matches instead of a scan.
* **Delta windows** — a row's sequence number is its position in
  insertion order, so a probe can be restricted to rows added before /
  within / up to a round boundary.  The relations belong to one grounder,
  which reads its EDB into them once per run and only ever appends, so a
  window is a slice of one list.  This is what makes semi-naive
  evaluation cheap: the classic rewriting evaluates, per rule and round,
  one variant per positive conjunct with that conjunct ranging over the
  *delta* rows, earlier conjuncts over strictly older rows, and later
  conjuncts over everything — enumerating every new binding exactly once.
* **Compiled join plans** (:func:`compile_rule`) — a rule is compiled once
  into a :class:`RulePlan`.  Its ground arguments and its variables get
  fixed places in one flat slot list, and its head and body literals
  become slot templates.  Each positive conjunct *i* gets a
  :class:`JoinPlan`: the variant with conjunct *i* pinned to the delta,
  the others in most-bound-first order with ties to the leftmost conjunct.
  The order is fixed at compile time, and so is each :class:`JoinStep`:
  the positions its probe key binds and the slot (or rule constant) each
  key value comes from, the slots its other positions fill, and an
  equality check per variable repeated inside the atom.  A non-ground
  compound argument is built from the slots when its variables are bound,
  and matched structurally against the row's term otherwise.

:func:`join` runs one plan over a slot list, writing each matched row into
its slots: no substitution is built, and no binding pattern is derived
while probing.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

from .atoms import Atom, Literal
from .rules import Rule
from .terms import Compound, Term, Variable, term_variables

__all__ = [
    "Relation",
    "RelationStore",
    "JoinStep",
    "JoinPlan",
    "RulePlan",
    "compile_rule",
    "join",
]

Row = tuple[Term, ...]
#: One join step's probe for a round: the rows of its window whose
#: projection onto the step's bound positions equals the given key.
Probe = Callable[[Row], Iterable[Row]]


class Relation:
    """The ground facts of one ``(predicate, arity)`` signature, append-only.

    Rows are argument tuples kept in insertion order; ``row_ids`` maps a
    row to its sequence number, its position in ``rows`` (doubling as the
    duplicate filter), and ``indexes`` holds one hash index per binding
    pattern that has actually been probed.  Indexes are built lazily from
    the current rows and then maintained incrementally on every
    :meth:`add`, so the cost of an index is only paid for patterns the
    workload's rules really use.  A relation belongs to one grounder,
    which only adds rows, and only between rounds: a window's rows and
    posting lists stay put while a round probes them.
    """

    __slots__ = ("predicate", "arity", "rows", "row_ids", "indexes")

    def __init__(self, predicate: str, arity: int):
        self.predicate = predicate
        self.arity = arity
        self.rows: list[tuple[Term, ...]] = []
        self.row_ids: dict[tuple[Term, ...], int] = {}
        self.indexes: dict[tuple[int, ...], dict[tuple[Term, ...], list[int]]] = {}

    def __len__(self) -> int:
        return len(self.rows)

    def __contains__(self, args: tuple[Term, ...]) -> bool:
        return args in self.row_ids

    def add(self, args: tuple[Term, ...]) -> bool:
        """Append a row unless present; returns True when the row is new.

        New rows are appended to every index already built, keeping lazy
        indexes consistent without rebuilds.
        """
        if args in self.row_ids:
            return False
        sequence = len(self.rows)
        self.rows.append(args)
        self.row_ids[args] = sequence
        for positions, index in self.indexes.items():
            index.setdefault(tuple(args[p] for p in positions), []).append(sequence)
        return True

    def ensure_index(
        self, positions: tuple[int, ...]
    ) -> dict[tuple[Term, ...], list[int]]:
        """The hash index keyed on the given argument positions, built on
        first use from the current rows."""
        index = self.indexes.get(positions)
        if index is None:
            index = self.indexes[positions] = {}
            for sequence, args in enumerate(self.rows):
                index.setdefault(tuple(args[p] for p in positions), []).append(sequence)
        return index


class RelationStore:
    """All relations of one grounding run, keyed on ``(predicate, arity)``.

    Keying on the full signature (rather than the predicate name alone)
    means a probe for ``p/2`` never wades through ``p/1`` facts.
    """

    __slots__ = ("relations",)

    def __init__(self) -> None:
        self.relations: dict[tuple[str, int], Relation] = {}

    def relation(self, predicate: str, arity: int) -> Optional[Relation]:
        return self.relations.get((predicate, arity))

    def add_atom(self, atom: Atom) -> bool:
        """Insert a ground atom; returns True when it is new."""
        key = (atom.predicate, atom.arity)
        relation = self.relations.get(key)
        if relation is None:
            relation = self.relations[key] = Relation(atom.predicate, atom.arity)
        return relation.add(atom.args)

    def __contains__(self, atom: Atom) -> bool:
        relation = self.relations.get((atom.predicate, atom.arity))
        return relation is not None and atom.args in relation

    def sizes(self) -> dict[tuple[str, int], int]:
        """Row count per relation: a round boundary snapshot."""
        return {key: len(relation.rows) for key, relation in self.relations.items()}


# --------------------------------------------------------------------- #
# Compiled join plans
# --------------------------------------------------------------------- #
#: A value template: a slot index, or a non-ground compound built from slots.
Template = Union[int, "_Build"]

# How a compound pattern treats one argument (see _Pattern).
_BIND, _CHECK, _NEST = 0, 1, 2


class _Build:
    """A non-ground compound term, built from the slots of its variables."""

    __slots__ = ("functor", "args")

    def __init__(self, functor: str, args: tuple[Template, ...]):
        self.functor = functor
        self.args = args

    def __call__(self, slots: list) -> Compound:
        return Compound(
            self.functor,
            tuple(slots[arg] if arg.__class__ is int else arg(slots) for arg in self.args),
        )


class _Pattern:
    """A compound argument that still holds unbound variables when its step
    runs, matched structurally against the row's term: the first occurrence
    of a variable fills its slot, and a later one (or a constant) must equal
    the slot's value."""

    __slots__ = ("functor", "args")

    def __init__(self, functor: str, args: tuple[tuple[int, object], ...]):
        self.functor = functor
        self.args = args

    def match(self, term: Term, slots: list) -> bool:
        if (
            term.__class__ is not Compound
            or term.functor != self.functor
            or len(term.args) != len(self.args)
        ):
            return False
        for (kind, target), value in zip(self.args, term.args):
            if kind == _BIND:
                slots[target] = value
            elif kind == _CHECK:
                if slots[target] != value:
                    return False
            elif not target.match(value, slots):
                return False
        return True


def _getter(templates: Sequence[Template]) -> Callable[[list], Row]:
    """The function reading the tuple of *templates*' values off a slot list."""
    if all(template.__class__ is int for template in templates):
        if len(templates) > 1:
            return itemgetter(*templates)
        if templates:
            (slot,) = templates
            return lambda slots: (slots[slot],)
        return lambda slots: ()
    return lambda slots: tuple(
        slots[template] if template.__class__ is int else template(slots)
        for template in templates
    )


class JoinStep:
    """One conjunct of a :class:`JoinPlan`, resolved at compile time.

    ``positions`` are the argument positions bound when the step runs — a
    constant, or a term whose variables earlier steps bound — and ``key``
    reads the probe key for them off the slot list.  ``binds`` pairs each
    other position holding a variable's first occurrence in the atom with
    that variable's slot; ``checks`` pairs each later occurrence with the
    first (``row[first] == row[later]``); ``patterns`` pairs each compound
    argument that still holds an unbound variable with its matcher.  A
    step that binds every position is a membership probe.
    """

    __slots__ = ("conjunct", "signature", "positions", "key", "binds", "checks", "patterns")

    def __init__(
        self,
        conjunct: int,
        signature: tuple[str, int],
        positions: tuple[int, ...],
        key: Callable[[list], Row],
        binds: tuple[tuple[int, int], ...],
        checks: tuple[tuple[int, int], ...],
        patterns: tuple[tuple[int, _Pattern], ...],
    ):
        self.conjunct = conjunct
        self.signature = signature
        self.positions = positions
        self.key = key
        self.binds = binds
        self.checks = checks
        self.patterns = patterns


class JoinPlan:
    """One semi-naive variant of a rule: conjunct ``delta`` ranges over the
    delta rows, and ``steps`` join the conjuncts, ``delta`` first."""

    __slots__ = ("delta", "steps")

    def __init__(self, delta: int, steps: tuple[JoinStep, ...]):
        self.delta = delta
        self.steps = steps


class RulePlan:
    """A rule compiled for the join loop (see :func:`compile_rule`).

    A slot list starts as ``initial``: the rule's ground arguments, then
    one unbound slot per variable.  ``head_row`` reads the head's arguments
    off a slot list, and :meth:`instance` builds the ground rule from the
    ``body`` templates.  ``variants`` holds one :class:`JoinPlan` per
    positive conjunct; a rule without one has none, and its head is ground
    by safety.
    """

    __slots__ = ("rule", "predicate", "head_row", "body", "initial", "variants")

    def __init__(
        self,
        rule: Rule,
        head_row: Callable[[list], Row],
        body: tuple[tuple[str, Callable[[list], Row], bool], ...],
        initial: tuple[Optional[Term], ...],
        variants: tuple[JoinPlan, ...],
    ):
        self.rule = rule
        self.predicate = rule.head.predicate
        self.head_row = head_row
        self.body = body
        self.initial = initial
        self.variants = variants

    def slots(self) -> list:
        """A fresh slot list."""
        return list(self.initial)

    def instance(self, slots: list, head: Optional[Atom] = None) -> Rule:
        """The ground rule under the binding in *slots*; *head*, when given,
        is its head atom, already built."""
        if head is None:
            head = Atom(self.predicate, self.head_row(slots))
        return Rule(
            head,
            tuple(
                Literal(Atom(predicate, args(slots)), positive)
                for predicate, args, positive in self.body
            ),
        )


def compile_rule(rule: Rule) -> RulePlan:
    """Compile a safe rule into its slot layout, templates and join plans.

    Raises :class:`~repro.exceptions.SafetyError` when the rule is not
    range-restricted: every variable must occur in a positive body literal,
    which is what lets every template read a bound slot.
    """
    rule.check_safety()
    positive = tuple(literal.atom for literal in rule.body if literal.positive)
    slot_of: dict[Term, int] = {}
    constants: list[Term] = []

    def collect(term: Term) -> None:
        if term.is_ground:
            if term not in slot_of:
                slot_of[term] = len(constants)
                constants.append(term)
        elif isinstance(term, Compound):
            for arg in term.args:
                collect(arg)

    for atom in (rule.head, *(literal.atom for literal in rule.body)):
        for arg in atom.args:
            collect(arg)
    variables = dict.fromkeys(
        variable for atom in positive for variable in atom.variables()
    )
    for offset, variable in enumerate(variables):
        slot_of[variable] = len(constants) + offset

    def template(term: Term) -> Template:
        if term.is_ground or isinstance(term, Variable):
            return slot_of[term]
        return _Build(term.functor, tuple(template(arg) for arg in term.args))

    def getter(atom: Atom) -> Callable[[list], Row]:
        return _getter([template(arg) for arg in atom.args])

    variants = tuple(
        JoinPlan(
            delta,
            tuple(
                _compile_step(index, positive[index], bound, slot_of, template)
                for index, bound in _join_order(positive, delta)
            ),
        )
        for delta in range(len(positive))
    )
    return RulePlan(
        rule,
        getter(rule.head),
        tuple(
            (literal.atom.predicate, getter(literal.atom), literal.positive)
            for literal in rule.body
        ),
        (*constants, *(None for _ in variables)),
        variants,
    )


def _join_order(
    positive: Sequence[Atom], delta: int
) -> Iterator[tuple[int, frozenset[Variable]]]:
    """Conjunct *delta* first, then repeatedly the conjunct with the most
    argument positions its predecessors bind (constants count as bound),
    ties going to the leftmost; each paired with the variables bound before
    it."""
    bound: frozenset[Variable] = frozenset()
    remaining = list(range(len(positive)))
    chosen = delta
    while True:
        yield chosen, bound
        remaining.remove(chosen)
        bound = bound.union(positive[chosen].variables())
        if not remaining:
            return
        chosen = max(
            remaining, key=lambda index: (_bound_positions(positive[index], bound), -index)
        )


def _bound_positions(atom: Atom, bound: frozenset[Variable]) -> int:
    return sum(
        1 for arg in atom.args if all(variable in bound for variable in term_variables(arg))
    )


def _compile_step(
    conjunct: int,
    atom: Atom,
    bound: frozenset[Variable],
    slot_of: dict[Term, int],
    template: Callable[[Term], Template],
) -> JoinStep:
    positions: list[int] = []
    key: list[Template] = []
    binds: list[tuple[int, int]] = []
    checks: list[tuple[int, int]] = []
    open_compounds: list[tuple[int, Compound]] = []
    first: dict[Variable, int] = {}
    for position, arg in enumerate(atom.args):
        if all(variable in bound for variable in term_variables(arg)):
            positions.append(position)
            key.append(template(arg))
        elif isinstance(arg, Variable):
            if arg in first:
                checks.append((first[arg], position))
            else:
                first[arg] = position
                binds.append((position, slot_of[arg]))
        else:
            open_compounds.append((position, arg))
    known = set(bound).union(first)
    return JoinStep(
        conjunct,
        (atom.predicate, atom.arity),
        tuple(positions),
        _getter(key),
        tuple(binds),
        tuple(checks),
        tuple(
            (position, _pattern(compound, known, slot_of))
            for position, compound in open_compounds
        ),
    )


def _pattern(term: Compound, known: set[Variable], slot_of: dict[Term, int]) -> _Pattern:
    args: list[tuple[int, object]] = []
    for arg in term.args:
        if arg.is_ground:
            args.append((_CHECK, slot_of[arg]))
        elif isinstance(arg, Variable):
            args.append((_CHECK if arg in known else _BIND, slot_of[arg]))
            known.add(arg)
        else:
            args.append((_NEST, _pattern(arg, known, slot_of)))
    return _Pattern(term.functor, tuple(args))


def join(
    steps: Sequence[JoinStep], probes: Sequence[Probe], slots: list, depth: int = 0
) -> Iterator[None]:
    """Run *steps* from *depth* on, each probing through its entry in
    *probes*: yield once per binding of the conjuncts, with the binding in
    *slots* (valid until the generator resumes)."""
    step = steps[depth]
    binds, checks, patterns = step.binds, step.checks, step.patterns
    deeper = depth + 1 < len(steps)
    for row in probes[depth](step.key(slots)):
        if checks and not all(row[first] == row[later] for first, later in checks):
            continue
        for position, slot in binds:
            slots[slot] = row[position]
        if patterns and not all(
            pattern.match(row[position], slots) for position, pattern in patterns
        ):
            continue
        if deeper:
            yield from join(steps, probes, slots, depth + 1)
        else:
            yield
