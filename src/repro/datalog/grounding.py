"""Herbrand universes, Herbrand bases, and grounding.

Section 3 of the paper defines the Herbrand instantiation ``P_H`` of a
program: every rule is instantiated with ground terms in all possible ways.
The alternating fixpoint, well-founded, and stable semantics are all defined
on this (possibly huge) ground program, so a grounder is the first substrate
the library needs.

Two grounding strategies are provided:

* :func:`naive_ground` — the literal Definition: substitute every tuple of
  universe elements for the rule variables.  Exponential, but exactly the
  ``P_H`` of the paper; useful for small programs and for differential
  testing of the smarter grounder.
* :func:`relevant_ground` — instantiates rules only with substitutions whose
  positive body literals are supported by an over-approximation of the
  derivable atoms (the minimum model of the program with negative literals
  erased).  Negative literals over atoms outside that over-approximation are
  vacuously true and are dropped.  This produces an equivalent ground
  program for every semantics implemented here (atoms outside the
  over-approximation are false in every partial model considered), and it is
  the default used by :func:`ground_program`.

:func:`relevant_ground` is the first run of an :class:`IncrementalGrounder`,
a fused semi-naive grounder built on the hash-join relations of
:mod:`repro.datalog.joins`.  The envelope fixpoint is delta-driven: each
round evaluates, per rule, one variant per positive conjunct with that
conjunct restricted to the rows derived in the previous round (earlier
conjuncts to strictly older rows, later ones to everything), so every rule
instance is enumerated exactly once, the moment its last supporting atom
appears.  Each rule is compiled once per grounder
(:func:`repro.datalog.joins.compile_rule`) into one join plan per variant,
with a static most-bound-first conjunct order; the plans run over a flat
slot list through lazily built argument-position hash indexes, a head is a
row tuple until it is new to the envelope, and ground rules are emitted
incrementally — there is no separate re-instantiation pass.  The grounder
owns every row it joins: a run reads its EDB (the program's facts, then a
store's rows) once, as the first round's delta, into its own relations.
The EDB stays atoms: :meth:`IncrementalGrounder.ground` returns the facts
in that read order next to the lazy stream of rule instances, which
:func:`repro.core.context.build_context` consumes without an intermediate
program; a session keeps the grounder and resumes it from newly asserted
facts.  For a definite program the envelope *is* the minimum model
``T_P↑ω(∅)`` (Section 3.4), so :meth:`IncrementalGrounder.envelope` runs
the same join loop reading heads only and returns it, with no rule
instance built; :func:`repro.engine.solver.solve_configured` solves
definite non-ground programs that way.  :meth:`IncrementalGrounder.ground_ir`
runs it once more, turning each binding straight into int atom ids (a
:class:`GroundIR`, the kernel's input, with no :class:`Rule` per
instance); a well-founded ``solve`` grounds that way.

:func:`scan_relevant_ground` is the original matcher, kept as the
reference the indexed grounder is differentially tested against: a naive
envelope fixpoint that re-matches every rule against the whole derivable
set each round by linear scan over per-signature fact lists, then a second
pass that re-instantiates every rule.  Quadratically slower on recursive
workloads.

Programs with function symbols have infinite Herbrand universes; the
``max_depth`` parameter bounds the term nesting considered (see
:class:`GroundingLimits` and README's *Grounding* section; all paper
experiments are function-free).
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Sequence

from ..exceptions import GroundingError
from ..obs.recorder import NULL_RECORDER, Recorder
from ..resilience.budget import current_meter
from .atoms import Atom, Literal
from .joins import JoinPlan, Probe, Relation, RelationStore, Row, RulePlan, compile_rule, join
from .rules import Program, Rule
from .terms import Constant, Term, enumerate_ground_terms, term_constants, term_functions

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..storage.base import FactStore

__all__ = [
    "GroundingLimits",
    "herbrand_universe",
    "herbrand_base",
    "naive_ground",
    "relevant_ground",
    "scan_relevant_ground",
    "IncrementalGrounder",
    "GroundIR",
    "ground_program",
]

DEFAULT_MAX_GROUND_RULES = 2_000_000


@dataclass(frozen=True)
class GroundingLimits:
    """Size limits applied during grounding.

    ``max_depth`` bounds compound-term nesting in the Herbrand universe;
    ``max_rules`` aborts the grounding when the instantiated program would
    exceed the given number of rules (protecting against accidental
    combinatorial blow-ups in user programs).  Time is not a grounding
    limit: a :class:`~repro.resilience.Budget` deadline covers the whole
    solve, and one that trips while grounding raises
    :class:`~repro.exceptions.GroundingTimeout`.
    """

    max_depth: int = 0
    max_rules: int = DEFAULT_MAX_GROUND_RULES


@dataclass(frozen=True)
class GroundIR:
    """A ground program over dense int atom ids: what every front end
    hands the kernel's back end (:func:`repro.kernel.compile.condense`).

    ``atoms[i]`` is the atom with id ``i``.  Rule ``r`` derives
    ``heads[r]`` from the positive body
    ``pos_atoms[pos_off[r]:pos_off[r + 1]]`` and the negative body
    ``neg_atoms[neg_off[r]:neg_off[r + 1]]``, each a list of distinct ids
    (so the kernel's counters seeded from segment lengths are exact);
    ``fact_ids`` are the EDB facts' ids, ascending.
    """

    atoms: list[Atom]
    heads: list[int]
    pos_off: list[int]
    pos_atoms: list[int]
    neg_off: list[int]
    neg_atoms: list[int]
    fact_ids: list[int]


def herbrand_universe(program: Program, max_depth: int = 0) -> list[Term]:
    """The ground terms constructible from the program's constants and
    function symbols, up to *max_depth* nesting.

    If the program mentions no constants at all, a single fresh constant
    ``u0`` is invented so that rules with variables still have a non-empty
    instantiation (the standard convention).
    """
    constants: list[Constant] = []
    functions: list[tuple[str, int]] = []
    seen_constants: set[Constant] = set()
    seen_functions: set[tuple[str, int]] = set()

    def collect_from_atom(atom: Atom) -> None:
        for arg in atom.args:
            for constant in term_constants(arg):
                if constant not in seen_constants:
                    seen_constants.add(constant)
                    constants.append(constant)
            for signature in term_functions(arg):
                if signature not in seen_functions:
                    seen_functions.add(signature)
                    functions.append(signature)

    for rule in program:
        collect_from_atom(rule.head)
        for literal in rule.body:
            collect_from_atom(literal.atom)

    if not constants:
        constants.append(Constant("u0"))
    return enumerate_ground_terms(constants, functions, max_depth)


def herbrand_base(
    program: Program,
    universe: Optional[Sequence[Term]] = None,
    predicates: Optional[Iterable[str]] = None,
    max_depth: int = 0,
) -> set[Atom]:
    """The Herbrand base: all ground atoms over the given predicates.

    By default the base is restricted to the IDB predicates, following the
    paper's convention that EDB relations are not mentioned in
    interpretations (Section 3.3).  Pass ``predicates`` explicitly to widen
    or narrow the base.
    """
    if universe is None:
        universe = herbrand_universe(program, max_depth)
    signatures = program.predicate_signatures()
    if predicates is None:
        wanted = program.idb_predicates()
    else:
        wanted = set(predicates)
    base: set[Atom] = set()
    for signature in signatures:
        if signature.name not in wanted:
            continue
        if signature.arity == 0:
            base.add(Atom(signature.name, ()))
            continue
        for combination in itertools.product(universe, repeat=signature.arity):
            base.add(Atom(signature.name, tuple(combination)))
    return base


def naive_ground(program: Program, limits: GroundingLimits | None = None) -> Program:
    """The literal Herbrand instantiation ``P_H`` of the program.

    Each rule is instantiated with every assignment of universe elements to
    its variables.  Raises :class:`GroundingError` when the result would
    exceed ``limits.max_rules``.
    """
    limits = limits or GroundingLimits()
    budget = current_meter()
    universe = herbrand_universe(program, limits.max_depth)
    ground_rules: list[Rule] = []
    for rule in program:
        variables = sorted(rule.variables(), key=lambda v: v.name)
        if not variables:
            ground_rules.append(rule)
            continue
        count_estimate = len(universe) ** len(variables)
        if len(ground_rules) + count_estimate > limits.max_rules:
            raise GroundingError(
                f"naive grounding of rule '{rule}' would produce {count_estimate} "
                f"instances, exceeding the limit of {limits.max_rules}"
            )
        for combination in itertools.product(universe, repeat=len(variables)):
            binding = dict(zip(variables, combination))
            ground_rules.append(rule.substitute(binding))
            budget.tick("ground")
    return Program(ground_rules)


def _probes(
    relations: dict[tuple[str, int], Relation],
    plan: JoinPlan,
    old_sizes: dict[tuple[str, int], int],
    new_sizes: dict[tuple[str, int], int],
) -> Optional[list[Probe]]:
    """One probe per step of *plan* for the round between *old_sizes* and
    *new_sizes*, or ``None`` when a step's window is empty.  The delta
    conjunct ranges over the round's new rows, the conjuncts before it over
    strictly older rows and those after it over all."""
    delta = plan.delta
    probes = []
    for step in plan.steps:
        signature = step.signature
        if step.conjunct < delta:
            lo, hi = 0, old_sizes.get(signature, 0)
        elif step.conjunct == delta:
            lo, hi = old_sizes.get(signature, 0), new_sizes.get(signature, 0)
        else:
            lo, hi = 0, new_sizes.get(signature, 0)
        if hi <= lo:
            return None
        probes.append(_overlay_probe(relations[signature], step.positions, lo, hi))
    return probes


def _overlay_probe(
    relation: Relation, positions: tuple[int, ...], lo: int, hi: int
) -> Probe:
    """The probe of one window of the grounder's rows: rows in ``[lo, hi)``
    of *relation* whose projection onto *positions* equals the key.  The
    relations only grow, and only between rounds, so a window's rows and
    postings stay put while a round probes them.  Every position bound is
    a membership test on ``row_ids``; none bound is the window itself;
    otherwise the lazy hash index's posting list, cut to the window."""
    rows = relation.rows
    if len(positions) == relation.arity:
        row_ids = relation.row_ids

        def member(key: Row) -> tuple:
            sequence = row_ids.get(key)
            return (key,) if sequence is not None and lo <= sequence < hi else ()

        return member
    if not positions:
        window = rows[lo:hi]
        return lambda key: window
    index = relation.ensure_index(positions)

    def indexed(key: Row) -> Iterable[Row]:
        postings = index.get(key)
        if not postings:
            return ()
        if postings[0] < lo or postings[-1] >= hi:
            postings = postings[bisect_left(postings, lo) : bisect_left(postings, hi)]
        return map(rows.__getitem__, postings)

    return indexed


def relevant_ground(
    program: Program,
    limits: GroundingLimits | None = None,
    store: "FactStore | None" = None,
) -> Program:
    """Instantiate rules only where their positive body is supportable.

    The over-approximation of derivable atoms is the minimum model of the
    *positive envelope* of the program (the Horn program obtained by erasing
    negative body literals), computed bottom-up to a fixpoint.  Rules are
    instantiated by matching their positive body literals against that set,
    threading the variable binding; safety guarantees that all variables
    end up bound.

    Ground negative literals are kept verbatim (even when their atom is
    outside the over-approximation and therefore underivable) so that the
    atoms the paper's examples mention as *false* still occur in the ground
    program and are reported in the computed models.  The resulting ground
    program has the same well-founded, stable, stratified, Horn and
    inflationary models (restricted to the occurring atoms) as the full
    Herbrand instantiation.  The Fitting semantics is the exception: it can
    leave *underivable* atoms undefined (their proof search never finitely
    fails), so :func:`repro.semantics.fitting.fitting_model` grounds naively
    by default.

    *store*, when given, supplies EDB facts from a
    :class:`~repro.storage.FactStore` in addition to the program's own fact
    rules.  The result is the facts as fact rules, in read order (the
    program's, then the store's), then the rule instances as the
    :class:`IncrementalGrounder` emits them; :func:`scan_relevant_ground`
    grounds the same rule set by the original matcher.
    """
    facts, instances = IncrementalGrounder(program, limits, store=store).ground()
    return Program([*map(Rule, facts), *instances])


class IncrementalGrounder:
    """The relevant grounder as a resumable semi-naive envelope fixpoint.

    :meth:`ground` runs the grounding from scratch — the grounding of
    :func:`relevant_ground`, its facts apart and its rule instances as a
    lazy stream — and leaves the envelope (the atoms derivable in the
    program with negation erased) and the set of emitted instances
    behind.  :meth:`extend` then resumes the same fixpoint from
    facts asserted since: they are the first round's delta, joined against
    the whole envelope, and only instances never emitted before come out.
    This is multi-shot incremental grounding in the style of clingo: the
    envelope only grows, so the instances emitted so far always contain the
    relevant grounding of the current EDB.  :meth:`envelope` and
    :meth:`ground_ir` are the one-shot alternatives to :meth:`ground`: the
    same loop, building no instances, returning the envelope itself or the
    grounding over int atom ids.  Every run executes the join plans
    compiled from the rules once, at construction.

    The grounder owns every row it joins.  A run reads its EDB once —
    the program's facts, then the *store*'s rows (:meth:`_facts`) — and
    queues them as round 0's delta into its own relations, which only ever
    grow; :meth:`extend` appends the facts asserted since.  Facts retracted
    since the last run stay among those rows, and so do the instances built
    on them: each has a positive body atom outside the current EDB's
    envelope, so it never fires and every verdict equals that of a
    from-scratch grounding, while the atom base may carry extra atoms that
    are false.
    """

    def __init__(
        self,
        program: Program,
        limits: GroundingLimits | None = None,
        store: "FactStore | None" = None,
        recorder: Recorder | None = None,
    ):
        self._limits = limits or GroundingLimits()
        self._store = store
        self._recorder = recorder if recorder is not None else NULL_RECORDER
        self._rows = RelationStore()
        self._seen: set[Rule] = set()
        self._emitted = 0
        # One pass splits the program: its facts, each once in program
        # order, and its other rules.
        facts: dict[Atom, None] = {}
        rules: list[Rule] = []
        for rule in program:
            if rule.is_fact:
                facts[rule.head] = None
            else:
                rules.append(rule)
        self._program_facts = list(facts)
        # Checks every rule's safety, facts being safe by definition.
        self._plans = tuple(compile_rule(rule) for rule in rules)

    def ground(self) -> tuple[list[Atom], Iterator[Rule]]:
        """The first run: ``(facts, instances)``, the EDB facts (the
        program's, then the store's, each once) and the lazy stream of
        rule instances, each the moment the round supplying its last
        positive body atom joins it.

        The store is read here, before the stream starts.  ``max_rules``
        and the ``ground.rules_emitted`` tally count the facts with the
        instances, as every run does on its first pass.
        """
        facts = self._facts()
        self._emitted = len(facts)
        return facts, self._emit(self._fixpoint(facts, {}, first_run=True), first_run=True)

    def envelope(self) -> tuple[list[Atom], set[Atom]]:
        """The first run without rule instances: ``(facts, atoms)``, the
        EDB facts (the program's, then the store's, each once) and the
        envelope they generate, facts included.

        The join loop is :meth:`ground`'s, reading heads only, so for a
        definite program *atoms* is its minimum model ``T_P↑ω(∅)``.
        ``max_rules`` counts the facts plus every binding enumerated, which
        is what :meth:`ground` emits on a program without duplicate rules,
        so a limit trips at the same size on both runs.  No instance is
        recorded as emitted, so the grounder is not to be extended after.
        """
        facts = self._facts()
        atoms = set(facts)
        counted = len(facts)
        limit = self._limits.max_rules
        for _, _, new in self._fixpoint(facts, {}, first_run=True):
            counted += 1
            if counted > limit:
                raise _rule_limit_error(limit)
            if new is not None:
                atoms.add(new)
        return facts, atoms

    def ground_ir(self) -> GroundIR:
        """The first run lowered straight to int atom ids: the grounding
        of :meth:`ground`, with no :class:`Rule` built per instance.

        The facts take the first ids, the program's in program order and
        then the store's rows in store order, and the first round's delta
        follows that order, so no id depends on the hash seed.  Every other
        atom gets its id the first time a binding's head or body row meets
        it, through one ``row → id`` dict per signature; the atom a new
        head already has is the one kept, and an atom met only in a
        negative body is built once, then.  An instance is its head id and
        its body's signed ids in body order (``id`` for a positive literal,
        ``~id`` for a negative one), the same equality as :class:`Rule`'s,
        so duplicates drop out as in :meth:`ground`, and ``max_rules``
        counts what :meth:`ground` emits: the facts plus the distinct
        instances.  No instance is recorded as emitted, so the grounder is
        not to be extended after.
        """
        facts = self._facts()
        atoms = list(facts)
        ids: dict[tuple[str, int], dict[Row, int]] = {}
        for atom_id, fact in enumerate(facts):
            ids.setdefault((fact.predicate, fact.arity), {})[fact.args] = atom_id
        layouts = {plan: _id_layout(plan, ids) for plan in self._plans}

        seen: set[tuple[int, ...]] = set()
        heads: list[int] = []
        pos_off, pos_atoms, neg_off, neg_atoms = [0], [], [0], []
        limit = self._limits.max_rules
        emitted = len(facts)
        for plan, slots, new in self._fixpoint(facts, {}, first_run=True):
            head_ids, body, repeats = layouts[plan]
            row = plan.head_row(slots) if new is None else new.args
            head = head_ids.get(row)
            if head is None:
                head = head_ids[row] = len(atoms)
                atoms.append(Atom(plan.predicate, row) if new is None else new)
            key = [head]
            for table, args, positive, predicate in body:
                row = args(slots)
                atom_id = table.get(row)
                if atom_id is None:
                    atom_id = table[row] = len(atoms)
                    atoms.append(Atom(predicate, row))
                key.append(atom_id if positive else ~atom_id)
            key = tuple(key)
            if key in seen:
                continue
            seen.add(key)
            emitted += 1
            if emitted > limit:
                raise _rule_limit_error(limit)
            heads.append(head)
            if repeats:
                signed = set(key[1:])
                pos_atoms.extend(sorted(i for i in signed if i >= 0))
                neg_atoms.extend(sorted(~i for i in signed if i < 0))
            else:
                for atom_id in key[1:]:
                    if atom_id >= 0:
                        pos_atoms.append(atom_id)
                    else:
                        neg_atoms.append(~atom_id)
            pos_off.append(len(pos_atoms))
            neg_off.append(len(neg_atoms))
        if self._recorder.enabled:
            self._recorder.count("ground.rules_emitted", emitted)
        return GroundIR(
            atoms, heads, pos_off, pos_atoms, neg_off, neg_atoms, list(range(len(facts)))
        )

    def extend(self, asserted: Iterable[Atom]) -> Iterator[Rule]:
        """Resume from facts asserted since the last run, yielding only the
        rule instances not emitted before.

        Atoms already among the grounder's rows (a retracted fact
        re-asserted, a derivable atom asserted as a fact) need no work:
        every instance they support was emitted when they joined them.  The
        new ones are the first round's delta, joined against every row.
        """
        rows = self._rows
        new = [atom for atom in dict.fromkeys(asserted) if atom not in rows]
        if new:
            bindings = self._fixpoint(new, rows.sizes(), first_run=False)
            yield from self._emit(bindings, first_run=False)

    def _facts(self) -> list[Atom]:
        """The EDB facts, each once: the program's in program order, then
        the store's rows in store order.  This is the run's one read of the
        store."""
        if self._store is None:
            return list(self._program_facts)
        stored = list(self._store.facts())
        if not self._program_facts:
            return stored  # a store holds each row once
        facts = dict.fromkeys(self._program_facts)
        facts.update(dict.fromkeys(stored))
        return list(facts)

    def _emit(
        self, bindings: Iterator[tuple[RulePlan, list, Optional[Atom]]], first_run: bool
    ) -> Iterator[Rule]:
        """The rule instances of *bindings*, each emitted once per grounder
        and counted against ``max_rules``; on the *first_run* the
        ``ground.rules_emitted`` tally includes the facts."""
        limit = self._limits.max_rules
        seen = self._seen
        emitted = self._emitted
        started = 0 if first_run else emitted
        try:
            for plan, slots, new in bindings:
                ground = plan.instance(slots, new)
                if ground not in seen:
                    seen.add(ground)
                    emitted += 1
                    if emitted > limit:
                        raise _rule_limit_error(limit)
                    yield ground
        finally:
            self._emitted = emitted
        if self._recorder.enabled:
            self._recorder.count("ground.rules_emitted", emitted - started)

    def _fixpoint(
        self,
        delta: Iterable[Atom],
        old_sizes: dict[tuple[str, int], int],
        first_run: bool,
    ) -> Iterator[tuple[RulePlan, list, Optional[Atom]]]:
        """The semi-naive envelope fixpoint every run shares.

        Yields ``(plan, slots, new)`` for every binding of a rule's
        positive body: the binding sits in *slots* until the loop resumes,
        and *new* is the head's atom when the head is new to the envelope
        (``None`` otherwise).  Heads are row tuples, tested against the
        grounder's rows and the round's earlier heads, so an :class:`Atom`
        is built only for a new one; it joins the next round's delta.  Each
        rule runs its compiled plans (:func:`repro.datalog.joins.join`):
        variant i pins conjunct i to the delta rows, conjuncts before i to
        strictly older rows and conjuncts after i to all rows, so no
        binding is enumerated twice within a run.  *delta* holds the first
        round's atoms, none of them among the rows yet, and *old_sizes* the
        row bounds already joined.  On the *first_run*, the rules without
        positive conjuncts — ground by safety — fire once first, seeding
        the envelope with their heads.
        """
        budget = current_meter()
        recorder = self._recorder
        rows = self._rows
        relations = rows.relations
        pending = list(delta)

        seeds = [plan for plan in self._plans if not plan.variants] if first_run else ()
        if seeds:
            queued = set(pending)
            for plan in seeds:
                slots = plan.slots()
                head = Atom(plan.predicate, plan.head_row(slots))
                fresh = head not in queued
                if fresh:
                    queued.add(head)
                    pending.append(head)
                yield plan, slots, head if fresh else None

        while pending:
            batch = pending
            pending = []
            # A round can queue tens of thousands of heads, so appending
            # them is a stretch that needs its own checkpoint.
            for atom in batch:
                rows.add_atom(atom)
                budget.tick("ground")
            heads: dict[tuple[str, int], set[Row]] = {}
            new_sizes = rows.sizes()
            if recorder.enabled:
                recorder.count("ground.rounds")
                recorder.count("ground.delta_atoms", len(batch))

            for plan in self._plans:
                if not plan.variants:
                    continue
                budget.check("ground")
                predicate, head_row = plan.predicate, plan.head_row
                signature = (predicate, plan.rule.head.arity)
                relation = relations.get(signature)
                known = relation.row_ids if relation is not None else {}
                derived = heads.setdefault(signature, set())
                for variant in plan.variants:
                    probes = _probes(relations, variant, old_sizes, new_sizes)
                    if probes is None:
                        continue
                    slots = plan.slots()
                    for _ in join(variant.steps, probes, slots):
                        row = head_row(slots)
                        new = None
                        if row not in known and row not in derived:
                            derived.add(row)
                            new = Atom(predicate, row)
                            pending.append(new)
                        yield plan, slots, new
                        budget.tick("ground")
            old_sizes = new_sizes


def _rule_limit_error(limit: int) -> GroundingError:
    return GroundingError(f"grounding exceeded the limit of {limit} rules")


def _id_layout(plan: RulePlan, ids: dict[tuple[str, int], dict[Row, int]]) -> tuple:
    """How :meth:`IncrementalGrounder.ground_ir` reads one rule's ids: the
    ``row → id`` dict of its head's signature; per body literal its
    signature's dict, row template, polarity and predicate; and whether two
    literals of one polarity share a signature, so that an instance's body
    can name an atom twice."""
    rule = plan.rule
    literals = [
        (literal.atom.predicate, literal.atom.arity, literal.positive) for literal in rule.body
    ]
    body = tuple(
        (ids.setdefault((predicate, arity), {}), args, positive, predicate)
        for (predicate, arity, _), (_, args, positive) in zip(literals, plan.body)
    )
    head = ids.setdefault((plan.predicate, rule.head.arity), {})
    return head, body, len(set(literals)) < len(literals)


def scan_relevant_ground(
    program: Program,
    limits: GroundingLimits | None = None,
    store: "FactStore | None" = None,
) -> Program:
    """The original matcher: naive envelope fixpoint + linear-scan joins.

    Kept verbatim (modulo the ``(predicate, arity)`` fact index and the
    wall-clock budget) as the reference the indexed grounder of
    :func:`relevant_ground` is differentially tested against: the two
    ground the same rule set.  *store*'s facts join the program's as fact
    rules, read once, up front.
    """
    from .unification import match_atom  # local import to avoid a cycle at import time

    if store is not None:
        program = Program.union(store.as_program(), program)
    limits = limits or GroundingLimits()
    budget = current_meter()
    program.check_safety()

    facts = set(program.fact_atoms())
    non_facts = program.non_fact_rules()

    # ------------------------------------------------------------------ #
    # 1. Over-approximate the derivable atoms with the positive envelope.
    # ------------------------------------------------------------------ #
    derivable: set[Atom] = set(facts)
    changed = True
    while changed:
        changed = False
        for rule in non_facts:
            budget.check("ground")
            positive = [lit.atom for lit in rule.body if lit.positive]
            for binding in _match_body(positive, derivable, match_atom):
                budget.tick("ground")
                head = rule.head.substitute(binding)
                if not head.is_ground:
                    raise GroundingError(
                        f"rule '{rule}' produced a non-ground head {head}; "
                        "the rule is unsafe"
                    )
                if head not in derivable:
                    derivable.add(head)
                    changed = True

    # ------------------------------------------------------------------ #
    # 2. Instantiate rules against the over-approximation.
    # ------------------------------------------------------------------ #
    ground_rules: list[Rule] = [Rule(fact) for fact in sorted(facts, key=str)]
    seen: set[Rule] = set(ground_rules)
    for rule in non_facts:
        budget.check("ground")
        positive = [lit.atom for lit in rule.body if lit.positive]
        for binding in _match_body(positive, derivable, match_atom):
            budget.tick("ground")
            head = rule.head.substitute(binding)
            body: list[Literal] = []
            for lit in rule.body:
                if lit.positive:
                    body.append(lit.substitute(binding))
                    continue
                ground_negative = lit.substitute(binding)
                if not ground_negative.is_ground:
                    raise GroundingError(
                        f"negative literal {lit} in rule '{rule}' is not ground "
                        "after binding positive body variables; the rule is unsafe"
                    )
                body.append(ground_negative)
            new_rule = Rule(head, tuple(body))
            if new_rule not in seen:
                seen.add(new_rule)
                ground_rules.append(new_rule)
            if len(ground_rules) > limits.max_rules:
                raise GroundingError(
                    f"grounding exceeded the limit of {limits.max_rules} rules"
                )
    return Program(ground_rules)


def ground_program(program: Program, limits: GroundingLimits | None = None) -> Program:
    """Ground *program*, returning it unchanged when it is already ground.

    This is the entry point the semantics modules use; it delegates to
    :func:`relevant_ground`.
    """
    if program.is_ground:
        return program
    return relevant_ground(program, limits)


def _match_body(atoms: Sequence[Atom], facts: set[Atom], match_atom) -> Iterable[dict]:
    """Yield every binding of the variables of *atoms* such that all atoms
    match some fact in *facts* (conjunctive matching, left to right)."""
    if not atoms:
        yield {}
        return
    # Index facts by (predicate, arity) once; bodies repeatedly probe the
    # same relations, and the full signature keeps a probe for p/2 from
    # wading through p/1 facts.
    by_signature: dict[tuple[str, int], list[Atom]] = {}
    for fact in facts:
        by_signature.setdefault((fact.predicate, fact.arity), []).append(fact)

    def extend(index: int, binding: dict) -> Iterable[dict]:
        if index == len(atoms):
            yield binding
            return
        pattern = atoms[index]
        for fact in by_signature.get((pattern.predicate, pattern.arity), ()):  # pragma: no branch
            extended = match_atom(pattern, fact, binding)
            if extended is not None:
                yield from extend(index + 1, extended)

    yield from extend(0, {})
