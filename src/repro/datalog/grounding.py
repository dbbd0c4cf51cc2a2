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

:func:`relevant_ground` itself dispatches between two matchers, mirroring
the ``"seminaive"`` / ``"naive"`` strategy split of :mod:`repro.evaluation`:

* ``"indexed"`` (default) — a fused semi-naive grounder built on the
  hash-join relations of :mod:`repro.datalog.joins`.  The envelope fixpoint
  is delta-driven: each round evaluates, per rule, one variant per positive
  conjunct with that conjunct restricted to the rows derived in the
  previous round (earlier conjuncts to strictly older rows, later ones to
  everything), so every rule instance is enumerated exactly once, the
  moment its last supporting atom appears.  Conjuncts are joined in greedy
  most-bound-first order through lazily built argument-position hash
  indexes, and ground rules are emitted incrementally — there is no
  separate re-instantiation pass.  :func:`stream_relevant_ground` exposes
  the incremental rule stream directly (consumed by
  :func:`repro.core.context.build_context` to build evaluation contexts
  without an intermediate program); it is the first run of an
  :class:`IncrementalGrounder`, the same fixpoint as a resumable object a
  session keeps and resumes from newly asserted facts.  For a definite
  program the envelope *is* the minimum model ``T_P↑ω(∅)`` (Section 3.4),
  so :meth:`IncrementalGrounder.envelope` runs the same join loop
  substituting heads only and returns it, with no rule instance built;
  :func:`repro.engine.solver.solve_configured` solves definite non-ground
  programs that way.
* ``"scan"`` — the original matcher: a naive envelope fixpoint that
  re-matches every rule against the whole derivable set each round by
  linear scan over per-signature fact lists, then a second pass that
  re-instantiates every rule.  Quadratically slower on recursive
  workloads; kept as the differential-testing oracle.

Programs with function symbols have infinite Herbrand universes; the
``max_depth`` parameter bounds the term nesting considered, which is the
substitution documented in DESIGN.md (all paper experiments are
function-free).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Sequence

from ..exceptions import GroundingError
from ..obs.recorder import NULL_RECORDER, Recorder
from ..resilience.budget import Budget, current_meter
from .atoms import Atom, Literal
from .joins import RelationStore, join_bindings
from .rules import Program, Rule
from .terms import Constant, Term, enumerate_ground_terms, term_constants, term_functions
from .unification import Substitution

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..storage.base import FactStore

__all__ = [
    "GroundingLimits",
    "GROUNDING_MATCHERS",
    "DEFAULT_GROUNDING_MATCHER",
    "herbrand_universe",
    "herbrand_base",
    "naive_ground",
    "relevant_ground",
    "stream_relevant_ground",
    "IncrementalGrounder",
    "ground_program",
]

DEFAULT_MAX_GROUND_RULES = 2_000_000

#: Matchers accepted by :func:`relevant_ground`: ``"indexed"`` is the
#: semi-naive hash-join grounder, ``"scan"`` the original linear-scan
#: matcher kept as the differential oracle.
GROUNDING_MATCHERS = ("indexed", "scan")
DEFAULT_GROUNDING_MATCHER = "indexed"


@dataclass(frozen=True)
class GroundingLimits:
    """Resource limits applied during grounding.

    ``max_depth`` bounds compound-term nesting in the Herbrand universe;
    ``max_rules`` aborts the grounding when the instantiated program would
    exceed the given number of rules (protecting against accidental
    combinatorial blow-ups in user programs); ``max_seconds``, when set,
    aborts with :class:`~repro.exceptions.GroundingTimeout` once the
    grounder has spent that much wall-clock time (deadline-bound serving,
    benchmark budgets).
    """

    max_depth: int = 0
    max_rules: int = DEFAULT_MAX_GROUND_RULES
    max_seconds: float | None = None


def _grounding_meter(limits: GroundingLimits):
    """The budget meter one grounding run checks against.

    The legacy per-grounding ``limits.max_seconds`` starts a local
    :class:`~repro.resilience.BudgetMeter` chained to the ambient one (a
    solve-level :class:`~repro.resilience.Budget`, when active), so
    whichever deadline is tighter trips first; without a grounding-local
    deadline the ambient meter (or the no-op null meter) is used directly.
    Either way, a wall-clock trip inside grounding raises the legacy
    :class:`~repro.exceptions.GroundingTimeout`.
    """
    ambient = current_meter()
    if limits.max_seconds is not None:
        # The legacy contract admits max_seconds=0 as "already expired";
        # Budget requires a positive deadline, so clamp to one tick.
        seconds = max(limits.max_seconds, 1e-9)
        return Budget(max_seconds=seconds).start(parent=ambient)
    return ambient


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
    budget = _grounding_meter(limits)
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


def _validate_matcher(matcher: str) -> None:
    if matcher not in GROUNDING_MATCHERS:
        choices = ", ".join(GROUNDING_MATCHERS)
        raise GroundingError(f"unknown grounding matcher {matcher!r}; expected one of: {choices}")


class _SplitRelation:
    """One relation's joint row space: the frozen base store's rows in
    ``[0, base_bound)`` followed by the run's overlay rows shifted up by
    ``base_bound`` — presented through the ``candidate_rows`` probe shape
    :func:`repro.datalog.joins.join_bindings` consumes."""

    __slots__ = ("store", "predicate", "arity", "base_bound", "overlay")

    def __init__(
        self,
        store: "FactStore",
        predicate: str,
        arity: int,
        base_bound: int,
        overlay: RelationStore,
    ):
        self.store = store
        self.predicate = predicate
        self.arity = arity
        self.base_bound = base_bound
        self.overlay = overlay

    def candidate_rows(
        self,
        positions: tuple[int, ...],
        key: tuple[Term, ...],
        lo: int,
        hi: int,
    ) -> Iterator[tuple[int, tuple[Term, ...]]]:
        bound = self.base_bound
        if lo < bound:
            yield from self.store.candidate_rows(
                self.predicate, self.arity, positions, key, lo, min(hi, bound)
            )
        if hi > bound:
            relation = self.overlay.relation(self.predicate, self.arity)
            if relation is not None:
                for sequence, row in relation.candidate_rows(
                    positions, key, max(lo - bound, 0), hi - bound
                ):
                    yield sequence + bound, row


class _EnvelopeSpace:
    """The envelope fixpoint's atom space over an optional live base store.

    Without a base this is exactly the :class:`RelationStore` overlay the
    grounder owns.  With one, the base's rows (and its lazily built,
    *persistent* indexes) are probed in place — never copied or
    re-indexed — and only atoms the base lacks land in the overlay.  The
    base's sequence bounds are read once, so a space lives for one run:
    the base must not be mutated while the run's windows are live.
    """

    __slots__ = ("base", "overlay", "base_bounds", "_views")

    def __init__(self, base: "FactStore | None", overlay: RelationStore):
        self.base = base
        self.overlay = overlay
        self.base_bounds: dict[tuple[str, int], int] = dict(base.sizes()) if base else {}
        self._views: dict[tuple[str, int], _SplitRelation] = {}

    def add_atom(self, atom: Atom) -> bool:
        if self.base is not None and self.base.contains_atom(atom):
            return False
        return self.overlay.add_atom(atom)

    def __contains__(self, atom: Atom) -> bool:
        if self.base is not None and self.base.contains_atom(atom):
            return True
        return atom in self.overlay

    def sizes(self) -> dict[tuple[str, int], int]:
        sizes = dict(self.base_bounds)
        for key, relation in self.overlay.relations.items():
            sizes[key] = sizes.get(key, 0) + relation.sequence_bound
        return sizes

    def relation(self, predicate: str, arity: int):
        key = (predicate, arity)
        base_bound = self.base_bounds.get(key, 0)
        if not base_bound:
            return self.overlay.relation(predicate, arity)
        view = self._views.get(key)
        if view is None:
            view = self._views[key] = _SplitRelation(
                self.base, predicate, arity, base_bound, self.overlay
            )
        return view


def relevant_ground(
    program: Program,
    limits: GroundingLimits | None = None,
    matcher: str = DEFAULT_GROUNDING_MATCHER,
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

    *matcher* selects the implementation (see the module docstring):
    ``"indexed"`` — the semi-naive hash-join grounder — or ``"scan"`` — the
    original linear-scan oracle.  Both produce the same rule set (the
    property suite asserts this), differing only in enumeration order.

    *store*, when given, supplies EDB facts from a live
    :class:`~repro.storage.FactStore` in addition to the program's own fact
    rules; the indexed matcher probes the store's indexes in place (see
    :func:`stream_relevant_ground`), the scan oracle materialises the
    store's facts into the program first.
    """
    _validate_matcher(matcher)
    if matcher == "scan":
        if store is not None:
            program = Program.union(store.as_program(), program)
        return _scan_relevant_ground(program, limits)
    return Program(stream_relevant_ground(program, limits, store=store))


def stream_relevant_ground(
    program: Program,
    limits: GroundingLimits | None = None,
    store: "FactStore | None" = None,
    recorder: Recorder | None = None,
) -> Iterator[Rule]:
    """Stream the relevant grounding incrementally (indexed matcher).

    Yields the ground rules of ``relevant_ground(program)`` one at a time,
    as the fused semi-naive envelope fixpoint derives them: facts first
    (sorted), then each rule instance the moment the delta round supplying
    its last positive body atom completes its join.  Consumers such as
    :func:`repro.core.context.build_context` use the stream to build their
    own indexes in the same pass instead of waiting for the full program.

    *store*, when given, is a live :class:`~repro.storage.FactStore` whose
    facts join the program's own fact rules as the EDB.  Its rows are
    probed **in place** through the store's bound-position indexes — the
    store is never copied into a per-run ``RelationStore``, and for the
    in-memory backend the indexes one run builds are reused by the next.
    The store must not be mutated while the stream is being consumed.

    *recorder*, when tracing (see :mod:`repro.obs`), accumulates the
    ``ground.rounds`` / ``ground.delta_atoms`` / ``ground.rules_emitted``
    counters — one tally per envelope round, never per row.

    This is the first run of an :class:`IncrementalGrounder`; a caller
    that wants to resume the grounding after the EDB grows holds the
    grounder itself.
    """
    yield from IncrementalGrounder(program, limits, store=store, recorder=recorder).ground()


class IncrementalGrounder:
    """The relevant grounder as a resumable semi-naive envelope fixpoint.

    :meth:`ground` runs the grounding from scratch — exactly the stream of
    :func:`stream_relevant_ground` — and leaves the envelope (the atoms
    derivable in the program with negation erased) and the set of emitted
    instances behind.  :meth:`extend` then resumes the same fixpoint from
    facts asserted since: they are the first round's delta, joined against
    the whole envelope, and only instances never emitted before come out.
    This is multi-shot incremental grounding in the style of clingo: the
    envelope only grows, so the instances emitted so far always contain the
    relevant grounding of the current EDB.  :meth:`envelope` is the
    one-shot alternative to :meth:`ground`: the same loop, building no
    instances, returning the envelope itself.

    Facts retracted since the last run stay in the envelope
    (:meth:`retain`).  The instances built on them are kept too; each has a
    positive body atom outside the current envelope, so it never fires and
    every verdict equals that of a from-scratch grounding, while the atom
    base may carry extra atoms that are false.

    With a live *store*, the envelope is the store's rows plus an overlay
    the grounder owns (derived atoms, program facts, retained facts and
    each run's asserted delta).  Store rows are probed in place through
    sequence windows taken afresh at the start of every run and never kept
    between runs, because :meth:`repro.storage.MemoryStore.compact` may
    renumber them; the overlay is append-only, so its windows stay valid.
    """

    def __init__(
        self,
        program: Program,
        limits: GroundingLimits | None = None,
        store: "FactStore | None" = None,
        recorder: Recorder | None = None,
    ):
        program.check_safety()
        self._program = program
        self._limits = limits or GroundingLimits()
        self._store = store
        self._recorder = recorder if recorder is not None else NULL_RECORDER
        self._overlay = RelationStore()
        self._seen: set[Rule] = set()
        self._emitted = 0
        self._decomposed: list[tuple[Rule, tuple[Atom, ...], tuple[tuple[str, int], ...]]] = []
        for rule in program.non_fact_rules():
            positive = tuple(lit.atom for lit in rule.body if lit.positive)
            signatures = tuple((atom.predicate, atom.arity) for atom in positive)
            self._decomposed.append((rule, positive, signatures))

    def ground(self) -> Iterator[Rule]:
        """The first run: the facts (sorted), then every rule instance the
        moment the round supplying its last positive body atom joins it."""
        facts = self._facts()
        space = _EnvelopeSpace(self._store, self._overlay)
        pending: list[Atom] = []
        for fact in sorted(facts, key=str):
            self._emitted += 1
            yield Rule(fact)
            # Facts already present in the base store are part of round 0's
            # delta windows by construction.
            if fact not in space:
                pending.append(fact)
        yield from self._emit(self._first_run(space, pending), first_run=True)

    def envelope(self) -> tuple[set[Atom], set[Atom]]:
        """The first run without rule instances: ``(facts, atoms)``, the
        EDB facts (the program's and the store's) and the envelope they
        generate, facts included.

        The join loop is :meth:`ground`'s, substituting heads only, so for
        a definite program *atoms* is its minimum model ``T_P↑ω(∅)``.
        ``max_rules`` counts the facts plus every binding enumerated, which
        is what :meth:`ground` emits on a program without duplicate rules,
        so a limit trips at the same size on both runs.  No instance is
        recorded as emitted, so the grounder is not to be extended after.
        """
        facts = self._facts()
        space = _EnvelopeSpace(self._store, self._overlay)
        pending = [fact for fact in facts if fact not in space]
        atoms = set(facts)
        counted = len(facts)
        limit = self._limits.max_rules
        for _, _, head in self._first_run(space, pending):
            counted += 1
            if counted > limit:
                raise _rule_limit_error(limit)
            atoms.add(head)
        return facts, atoms

    def retain(self, atoms: Iterable[Atom]) -> None:
        """Keep facts retracted from the store in the envelope, so later
        runs still join against them."""
        for atom in atoms:
            self._overlay.add_atom(atom)

    def extend(self, asserted: Iterable[Atom]) -> Iterator[Rule]:
        """Resume from facts asserted since the last run, yielding only the
        rule instances not emitted before.

        Atoms already in the envelope (a retained fact re-asserted, a
        derivable atom asserted as a fact) need no work: every instance
        they support was emitted when they entered it.  The new ones are
        appended to the overlay as the first round's delta; the store's
        copy of them also falls into the "older" windows of that round, so
        a binding through two of them may be enumerated twice, which the
        emitted set absorbs.
        """
        new = [atom for atom in asserted if atom not in self._overlay]
        if not new:
            return
        space = _EnvelopeSpace(self._store, self._overlay)
        old_sizes = space.sizes()
        for atom in new:
            self._overlay.add_atom(atom)
        bindings = self._fixpoint(space, [], old_sizes, first_round=True, first_run=False)
        yield from self._emit(bindings, first_run=False)

    def _facts(self) -> set[Atom]:
        facts = set(self._program.fact_atoms())
        if self._store is not None:
            facts.update(self._store.facts())
        return facts

    def _first_run(
        self, space: _EnvelopeSpace, pending: list[Atom]
    ) -> Iterator[tuple[Rule, Substitution, Atom]]:
        # With a base store, round 0 must also sweep the base rows:
        # `old_sizes` starts all-zero, so the first round's delta windows
        # cover them even when no program fact added to the overlay.
        return self._fixpoint(
            space, pending, {}, first_round=bool(space.base_bounds), first_run=True
        )

    def _emit(
        self, bindings: Iterator[tuple[Rule, Substitution, Atom]], first_run: bool
    ) -> Iterator[Rule]:
        """The rule instances of *bindings*, each emitted once per grounder
        and counted against ``max_rules``; on the *first_run* the
        ``ground.rules_emitted`` tally includes the facts."""
        limit = self._limits.max_rules
        seen = self._seen
        emitted = self._emitted
        started = 0 if first_run else emitted
        try:
            for rule, binding, head in bindings:
                ground = _instantiate_rule(rule, head, binding)
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
        space: _EnvelopeSpace,
        pending: list[Atom],
        old_sizes: dict[tuple[str, int], int],
        first_round: bool,
        first_run: bool,
    ) -> Iterator[tuple[Rule, Substitution, Atom]]:
        """The semi-naive envelope fixpoint both runs share.

        Yields ``(rule, binding, head)`` for every binding of a rule's
        positive body, with the head substituted and checked ground; the
        head joins the next round's delta once the consumer resumes the
        loop.  Variant i of a rule pins conjunct i to the delta rows,
        conjuncts before i to strictly older rows and conjuncts after i to
        all rows, so no binding is enumerated twice within a run.
        *old_sizes* are the row bounds already joined; *first_round* forces
        one round even when *pending* is empty (the delta is already in
        place).  On the *first_run*, the rules without positive conjuncts —
        ground by safety — fire once first, seeding the envelope with their
        heads.
        """
        budget = _grounding_meter(self._limits)
        recorder = self._recorder
        pending_set: set[Atom] = set(pending)

        def derive(atom: Atom) -> None:
            if atom not in pending_set and atom not in space:
                pending_set.add(atom)
                pending.append(atom)

        for rule, positive, _ in self._decomposed if first_run else ():
            if positive:
                continue
            head = _ground_head(rule, {})
            yield rule, {}, head
            derive(head)

        while pending or first_round:
            first_round = False
            batch = pending
            pending = []
            for atom in batch:
                space.add_atom(atom)
            pending_set.clear()
            new_sizes = space.sizes()
            if recorder.enabled:
                recorder.count("ground.rounds")
                recorder.count("ground.delta_atoms", len(batch))

            for rule, positive, signatures in self._decomposed:
                if not positive:
                    continue
                budget.check("ground")
                for i, delta_signature in enumerate(signatures):
                    delta_lo = old_sizes.get(delta_signature, 0)
                    delta_hi = new_sizes.get(delta_signature, 0)
                    if delta_hi <= delta_lo:
                        continue
                    windows = []
                    for j, signature in enumerate(signatures):
                        if j < i:
                            windows.append((0, old_sizes.get(signature, 0)))
                        elif j == i:
                            windows.append((delta_lo, delta_hi))
                        else:
                            windows.append((0, new_sizes.get(signature, 0)))
                    for binding in join_bindings(positive, windows, space, seed=i):
                        head = _ground_head(rule, binding)
                        yield rule, binding, head
                        derive(head)
                        budget.tick("ground")
            old_sizes = new_sizes


def _rule_limit_error(limit: int) -> GroundingError:
    return GroundingError(f"grounding exceeded the limit of {limit} rules")


def _ground_head(rule: Rule, binding: Substitution) -> Atom:
    """*rule*'s head under *binding*, checked ground as the old matcher did
    (defensive: safety has already been validated)."""
    head = rule.head.substitute(binding)
    if not head.is_ground:
        raise GroundingError(
            f"rule '{rule}' produced a non-ground head {head}; the rule is unsafe"
        )
    return head


def _instantiate_rule(rule: Rule, head: Atom, binding: Substitution) -> Rule:
    """The instance of *rule* with head *head* under *binding*."""
    body: list[Literal] = []
    for lit in rule.body:
        ground_lit = lit.substitute(binding)
        if lit.negative and not ground_lit.is_ground:
            raise GroundingError(
                f"negative literal {lit} in rule '{rule}' is not ground "
                "after binding positive body variables; the rule is unsafe"
            )
        body.append(ground_lit)
    return Rule(head, tuple(body))


def _scan_relevant_ground(program: Program, limits: GroundingLimits | None = None) -> Program:
    """The original matcher: naive envelope fixpoint + linear-scan joins.

    Kept verbatim (modulo the ``(predicate, arity)`` fact index and the
    wall-clock budget) as the differential oracle for the indexed grounder.
    """
    from .unification import match_atom  # local import to avoid a cycle at import time

    limits = limits or GroundingLimits()
    budget = _grounding_meter(limits)
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


def ground_program(
    program: Program,
    limits: GroundingLimits | None = None,
    matcher: str = DEFAULT_GROUNDING_MATCHER,
) -> Program:
    """Ground *program*, returning it unchanged when it is already ground.

    This is the entry point the semantics modules use; it currently
    delegates to :func:`relevant_ground` with the given matcher.
    """
    if program.is_ground:
        return program
    return relevant_ground(program, limits, matcher=matcher)


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
