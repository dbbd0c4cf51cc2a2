"""Incremental maintenance of the component-wise well-founded model.

Component-wise evaluation (:mod:`repro.core.modular`) already exploits
the *relevance* of the well-founded semantics in space: an SCC of the atom
dependency graph only ever reads the verdicts of the components below it.
This module exploits the same structure in *time*: when the EDB changes,
the only components whose verdict can move are those with a directed path
to a changed atom — i.e. the components *upstream* of the change in the
condensation DAG.  Everything else keeps its frozen verdict.  The
well-founded model is also the perfect model of a stratified program and
the minimum model of a Horn one, so :class:`~repro.session.KnowledgeBase`
maintains those semantics here too.

:class:`IncrementalEngine` therefore caches, per knowledge base:

* the decomposed ground rules, head index, SCC condensation order and the
  component membership map — functions of the ground rules, which change
  only when the grounding grows (below);
* a component-level reverse adjacency (``dependents``, built when the
  grounding first grows): which components read each component's verdict;
* one aggregate true set and one aggregate false set holding every
  verdict — an atom in neither is undefined.  There is no per-component
  copy: re-solving a component takes its atoms out of the aggregates and
  puts its new verdicts back.

On :meth:`refresh` with a set of changed fact atoms, the batch goes to a
:class:`~repro.delta.DeltaMaintainer`, which updates per-component
derivation state at *atom* granularity — counting for one-pass
components, delete-and-rederive for recursive definite ones (Gupta,
Mumick & Subrahmanian, SIGMOD 1993) — and re-solves a component
wholesale with :func:`repro.core.modular.solve_component` only where
negation is recursive, reading the verdicts of the components below it
from the shared aggregate sets.  Facts whose atom occurs in no rule at
all ("floating" facts) bypass the component machinery entirely: they
are unconditionally true, nothing depends on them, and retracting one
removes it from the base outright — exactly what a from-scratch solve of
the updated program would produce, which is what the differential
property suite asserts.

Non-ground rule sets are grounded incrementally.  The engine keeps the
:class:`~repro.datalog.grounding.IncrementalGrounder` of its first
grounding and, on every refresh, resumes it from the facts asserted since
the last one; it emits only rule instances it has not emitted before.
New instances are appended to the rule context and folded into the solved
condensation in place: atoms new to the base become singleton components
that keep their old verdict (false, or true for a fact), components are
kept in a rank order that a Pearce–Kelly reorder repairs as dependencies
arrive, and the maintainer registers the new rules.  Only a dependency
closing a cycle between components (they merge) re-derives the
condensation.  That is sound because each new instance has a positive
body atom outside the previous envelope: under the old facts none fires,
so the old model is still the model of the grown program.  The
counting/DRed/resolve pass then runs on the changed facts as usual.

Retracted facts keep their instances, which have a false body atom and
never fire: true and undefined atoms always equal a from-scratch solve,
while :attr:`IncrementalEngine.base` is an over-approximation whose extra
atoms are false.  The grounding starts afresh once its
retracted-but-still-grounded facts outnumber the live ones and exceed the
store's tombstone threshold (:func:`repro.storage.memory.garbage_dominates`),
and when its instances pass ``GroundingLimits.max_rules``: only a fresh
grounding of the current facts reports that limit.

A session configured with ``engine="kernel"`` runs this same path: the
compiled kernel of :mod:`repro.kernel` is a one-shot evaluator, so the
aggregate sets are the only copy of a session's verdicts.

The engine keeps no per-component log either.  Every component solve
runs in a ``component`` span of the engine's recorder (index, method,
size, residual rules, stages) and counts ``components.<method>``; a
refresh's method split is :attr:`UpdateStats.methods`, and
:meth:`IncrementalEngine.statistics` reads the program's shape
(components, the largest one, ground rules, atoms) off the engine's own
state.

What a session publishes per epoch is :attr:`IncrementalEngine.view`, an
immutable per-predicate :class:`~repro.engine.view.ModelView`.  A refresh
notes every atom whose verdict or fact status may have moved: the flips
the maintainer emits through its ``sync`` hook, the changed facts
(floating ones included) and the components :meth:`_resolve_in_place`
re-solves when new rule instances are folded in or components merge.
Reading the view then derives it from the previously read one in
O(flips) — unflipped predicates shared, flipped ones rebuilt
copy-on-write — instead of rebuilding anything of the size of the model;
after a full solve (the first, a re-grounding, recovery from a failed
refresh) it is built from scratch.  The engine keeps its solved fact set
current from each refresh's delta too, so a delta refresh copies nothing
of the size of the EDB.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, AbstractSet, Iterable, Mapping, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..storage.base import FactStore

from ..analysis.dependency import build_atom_dependency_graph
from ..core.context import GroundContext, extend_context
from ..core.modular import solve_component
from ..datalog.atoms import Atom
from ..datalog.grounding import GroundingLimits, IncrementalGrounder
from ..datalog.rules import Program
from ..delta import DeltaMaintainer
from ..engine.view import ModelView
from ..exceptions import BudgetError, GroundingError
from ..fixpoint.interpretations import PartialInterpretation, TruthValue
from ..obs.recorder import NULL_RECORDER, Recorder
from ..resilience.budget import Budget, current_meter, metered
from ..storage.memory import garbage_dominates

__all__ = ["UpdateStats", "IncrementalEngine"]

#: The grounding of no rules: the seed every engine's rule context grows
#: from with :func:`~repro.core.context.extend_context`.
_EMPTY_CONTEXT = GroundContext(
    program=Program(),
    rules=(),
    facts=frozenset(),
    base=frozenset(),
    rules_by_head={},
)


@dataclass(frozen=True)
class UpdateStats:
    """What one model refresh actually did.

    ``mode`` is ``"initial"`` for the first solve, ``"delta"`` when
    atom-level maintenance absorbed the update (per-component counters,
    delete-and-rederive, and a whole-component re-solve where negation is
    recursive), and ``"rebuild"`` when the owning knowledge base had to
    re-solve from scratch (a semantics whose model differs from the
    well-founded one, a requested stratified or Horn class the rules do
    not meet, the naive grounder or the monolithic engine).
    ``components_total`` /
    ``components_recomputed`` / ``components_reused`` quantify the reuse —
    the acceptance benchmark asserts ``components_recomputed`` stays
    proportional to the affected region, not to the program.  In
    ``"delta"`` mode ``methods`` counts components by *maintenance*
    method (``counting`` / ``dred`` / ``resolve``), otherwise by solver
    method.  ``rules_added`` counts the ground rules the refresh appended
    to a non-ground session's grounding: an update that brings new rule
    instances also re-derives the condensation, so it is the one to look
    at when an occasional update is slower.  The grounding is kept across
    retractions, so the base of a non-ground session is an
    over-approximation whose extra atoms are false.

    When a tracing :class:`~repro.obs.Recorder` is attached to the engine,
    the same quantities are emitted as the attributes and counters of the
    ``refresh`` span (``refresh.cache_hits`` is ``components_reused``) —
    this dataclass is the derived, API-stable view of that record.
    """

    mode: str
    changed: int
    components_total: int
    components_recomputed: int
    components_reused: int
    floating_changed: int
    methods: Mapping[str, int] = field(default_factory=dict)
    elapsed: float = 0.0
    rules_added: int = 0

    @property
    def reuse_fraction(self) -> float:
        """Fraction of components whose frozen verdict was reused."""
        if not self.components_total:
            return 0.0
        return self.components_reused / self.components_total

    def describe(self) -> str:
        grown = f", {self.rules_added} ground rule(s) added" if self.rules_added else ""
        if self.mode == "delta":
            return (
                f"delta: {self.changed} changed atom(s), "
                f"{self.components_recomputed}/{self.components_total} "
                f"component state(s) maintained, {self.components_reused} "
                f"untouched ({self.reuse_fraction:.0%}){grown}"
            )
        if not self.components_total:
            return f"{self.mode}: full re-solve of the program"
        return f"{self.mode}: all {self.components_total} components solved{grown}"


class IncrementalEngine:
    """Keeps the component-wise well-founded model warm across EDB updates.

    The owner hands :meth:`refresh` the current EDB and the atoms whose
    fact status flipped since the last refresh; a
    :class:`~repro.session.KnowledgeBase` derives them from its store's
    change events.  *store*, when given, is the EDB the grounder of
    non-ground rules probes in place.
    """

    def __init__(
        self,
        rules: Program,
        store: "FactStore | None" = None,
        recorder: Recorder | None = None,
        budget: Budget | None = None,
        limits: GroundingLimits | None = None,
    ):
        self._recorder = recorder if recorder is not None else NULL_RECORDER
        # Started afresh by every refresh: the budget is a per-operation
        # deadline, so a long-lived session never "uses up" its allowance.
        self._budget = budget

        # Mutable solved state, populated by the first refresh.
        self._components: list[set[Atom]] = []
        self._component_of: dict[Atom, int] = {}
        self._rule_atoms: frozenset[Atom] = frozenset()
        self._dependents: Optional[list[set[int]]] = None
        self._true: set[Atom] = set()
        self._false: set[Atom] = set()
        self._floating: set[Atom] = set()
        self._solved = False
        self._last: Optional[UpdateStats] = None
        # Atom-level maintenance state, built lazily after the first full
        # solve and discarded whenever the model or the grounding is rebuilt.
        self._delta: Optional[DeltaMaintainer] = None
        # The published per-predicate view (:attr:`view`), built on first
        # read after a full solve, and the atoms whose verdict or fact
        # status may have moved since it was last brought up to date (None
        # while there is no view to bring up to date).
        self._view: Optional[ModelView] = None
        self._flips: Optional[set[Atom]] = None
        # Monotone model-version counter: bumped once per *successful*
        # refresh, so two reads observing the same epoch are guaranteed to
        # observe the same model.  The query service stamps every response
        # with the epoch its snapshot was published at.
        self._epoch = 0

        # The rule context: decomposed ground rules, head index and the
        # atom universe they span; facts are attached per refresh.  Ground
        # rule sets are their own grounding.  Non-ground ones are grounded
        # against *store* (the EDB the grounder probes in place) by an
        # incremental grounder the engine keeps: `_facts` is then the EDB
        # the grounding covers, `_stale` the retracted facts it still
        # holds instances for.  `_facts` is the engine's own set, kept
        # current from each refresh's delta.  Construction may run under
        # an ambient budget meter (a session refresh constructing its
        # engine), so each build stage ends with a checkpoint — a deadline
        # elapsing mid-construction aborts there rather than after the
        # whole condensation.
        self._source = rules
        self._nonground = not rules.is_ground
        self._limits = limits
        self._grounding_store = store
        self._grounder: Optional[IncrementalGrounder] = None
        self._stale: set[Atom] = set()
        self._facts: set[Atom] = set()
        if self._nonground:
            self._reground()
        else:
            self._rule_context = extend_context(_EMPTY_CONTEXT, rules)
            current_meter().check("refresh")
            self._install()

    # ------------------------------------------------------------------ #
    # Grounding
    # ------------------------------------------------------------------ #
    def _reground(self) -> int:
        """Ground the non-ground rules from scratch, in one pass: the
        grounder's stream is the rule context's only source.  Returns the
        number of ground rules."""
        grounder = IncrementalGrounder(
            self._source, self._limits, store=self._grounding_store, recorder=self._recorder
        )
        facts: set[Atom] = set()
        rules = []
        with self._recorder.span("ground") as ground_span:
            for rule in grounder.ground():
                if rule.is_fact:
                    facts.add(rule.head)
                else:
                    rules.append(rule)
            context = extend_context(_EMPTY_CONTEXT, rules)
        if self._recorder.enabled:
            ground_span.annotate(rules=len(rules), facts=len(facts), atoms=len(context.base))
        current_meter().check("refresh")
        self._grounder = grounder
        self._stale = set()
        self._facts = facts
        self._rule_context = context
        self._install()
        return len(rules)

    def _sync_grounding(self, asserted: Iterable[Atom], retracted: Iterable[Atom]) -> int:
        """Resume the grounding from the facts asserted since it last ran
        (retracted ones stay grounded) and install the rule instances it
        emits.  Returns how many it emitted."""
        grounder = self._grounder
        retracted = list(retracted)
        grounder.retain(retracted)
        self._stale.update(retracted)
        asserted = list(asserted)
        self._stale.difference_update(asserted)
        with self._recorder.span("ground") as ground_span:
            added = list(grounder.extend(asserted))
            start = len(self._rule_context.rules)
            if added:
                self._rule_context = extend_context(self._rule_context, added)
        if self._recorder.enabled:
            ground_span.annotate(asserted=len(asserted), rules_added=len(added))
        if added and not (self._solved and self._fold_in(start)):
            self._install()
        return len(added)

    def _install(self) -> None:
        """(Re)derive everything that is a function of the rule context —
        the atom universe, the condensation and its reverse adjacency —
        after construction or a growth of the grounding.  A
        solved model is carried over onto the new components
        (:meth:`_carry_over`); the maintainer is rebuilt lazily."""
        meter = current_meter()
        context = self._rule_context
        old_atoms = self._rule_atoms
        old_component_of = self._component_of
        # Release what describes the old condensation before building the
        # new one, so the two never coexist at peak.
        self._delta = None
        self._components = []
        self._rule_atoms = context.base

        graph = build_atom_dependency_graph(context)
        meter.check("refresh")
        self._components = graph.condensation_order()
        meter.check("refresh")
        self._component_of = {}
        for index, component in enumerate(self._components):
            for atom in component:
                self._component_of[atom] = index
        # Components are processed by ascending rank (callees first); the
        # condensation order is the initial one, and :meth:`_fold_in`
        # repairs it as dependencies arrive.
        self._rank = list(range(len(self._components)))
        self._dependents = None
        del graph
        if self._solved:
            self._carry_over(old_atoms, old_component_of)

    def _carry_over(
        self, old_atoms: frozenset[Atom], old_component_of: Mapping[Atom, int]
    ) -> None:
        """Map the solved model onto a condensation re-derived after the
        grounding grew.

        Under the facts the model was solved for, no new rule instance
        fires (each has a positive body atom outside the old envelope,
        hence false), so the model stays the model of the grown program:
        atoms new to the rules keep their old verdict — true for a fact
        (it was floating), false otherwise.  Components that kept their
        membership keep their verdicts; new or merged ones are solved
        against the unchanged verdicts below them, which reproduces those
        verdicts.  A component kept its membership when all its atoms were
        rule atoms of one old component of the same size; the old sizes
        are counted from *old_component_of*.
        """
        facts = self._facts
        for atom in self._rule_atoms - old_atoms:
            if atom in facts:
                self._floating.discard(atom)
                self._true.add(atom)
            else:
                self._false.add(atom)
        old_sizes: dict[int, int] = {}
        for old in old_component_of.values():
            old_sizes[old] = old_sizes.get(old, 0) + 1
        changed = []
        for index, component in enumerate(self._components):
            first = next(iter(component))
            old = old_component_of.get(first) if first in old_atoms else None
            if (
                old is None
                or old_sizes[old] != len(component)
                or any(old_component_of.get(atom) != old for atom in component)
            ):
                changed.append(index)
        for index in changed:
            self._resolve_in_place(index, facts)

    def _resolve_in_place(self, index: int, facts: AbstractSet[Atom]) -> str:
        """Solve one component against the verdicts below it: its atoms
        leave the aggregates and its new verdicts enter them (and, as
        possible flips, the view's to-do list).  Returns the method that
        solved it."""
        component = self._components[index]
        if self._flips is not None:
            self._flips.update(component)
        self._true.difference_update(component)
        self._false.difference_update(component)
        comp_true, comp_false, method = self._solve_one(index, component, facts)
        self._true |= comp_true
        self._false |= comp_false
        return method

    def _fold_in(self, start: int) -> bool:
        """Fold the rules appended from index *start* into the solved
        condensation in place — the cheap alternative to :meth:`_install`.

        Atoms new to the rules become singleton components, ranked below
        every component when nothing derives them and above otherwise;
        every new dependency that contradicts the ranks is repaired by a
        Pearce–Kelly reorder confined to the components ranked between its
        two ends.  New components are then solved in rank order against
        the verdicts below them — under the old facts no new rule fires,
        so this reproduces the old model — and the maintainer registers the
        new rules.  Returns False when a new dependency closes a cycle
        between components (they would merge): nothing that
        :meth:`_install` does not rebuild has been touched by then.
        """
        rules = self._rule_context.rules
        component_of = self._component_of
        dependents = self._component_dependents(start)
        heads = {rules[rule_id].head for rule_id in range(start, len(rules))}
        rank = self._rank
        floor, ceiling = min(rank, default=0), max(rank, default=0)
        existing = len(self._components)
        new_components: list[int] = []
        for rule_id in range(start, len(rules)):
            rule = rules[rule_id]
            for atom in (rule.head, *rule.positive_body, *rule.negative_body):
                if atom in component_of:
                    continue
                index = len(self._components)
                new_components.append(index)
                self._components.append({atom})
                component_of[atom] = index
                dependents.append(set())
                if atom in heads:
                    ceiling += 1
                    rank.append(ceiling)
                else:
                    floor -= 1
                    rank.append(floor)
        for rule_id in range(start, len(rules)):
            rule = rules[rule_id]
            reader = component_of[rule.head]
            for atom in {*rule.positive_body, *rule.negative_body}:
                owner = component_of[atom]
                if owner != reader and not self._add_dependency(reader, owner, rule_id):
                    return False

        self._rule_atoms = self._rule_context.base
        for index in sorted(new_components, key=rank.__getitem__):
            self._floating.difference_update(self._components[index])
            self._resolve_in_place(index, self._facts)
        grown = [
            rule_id
            for rule_id in range(start, len(rules))
            if component_of[rules[rule_id].head] < existing
        ]
        if self._delta is not None and not self._delta.extend(
            rules, self._rule_context.rules_by_head, new_components, grown
        ):
            self._delta = None
        return True

    def _add_dependency(self, reader: int, owner: int, rule_id: int) -> bool:
        """Record that component *reader* reads component *owner* (through
        rule *rule_id*), keeping the ranks topological.

        When *owner* does not rank below *reader*, the Pearce–Kelly repair
        runs: the components reading *reader* and ranked up to *owner*, and
        those *owner* reads and ranked from *reader* up, swap places within
        the rank slots they already hold.  Returns False when *owner*
        already reads *reader*, i.e. the dependency closes a cycle.
        """
        dependents = self._dependents
        if reader in dependents[owner]:
            return True
        dependents[owner].add(reader)
        rank = self._rank
        lower, upper = rank[reader], rank[owner]
        if upper < lower:
            return True
        forward = {reader}
        stack = [reader]
        while stack:
            for index in dependents[stack.pop()]:
                if index == owner:
                    return False
                if index not in forward and rank[index] < upper:
                    forward.add(index)
                    stack.append(index)
        backward = {owner}
        stack = [owner]
        while stack:
            for index in self._reads(stack.pop(), rule_id):
                if index not in backward and rank[index] > lower:
                    backward.add(index)
                    stack.append(index)
        slots = sorted(rank[index] for index in forward | backward)
        order = sorted(backward, key=rank.__getitem__) + sorted(forward, key=rank.__getitem__)
        for slot, index in zip(slots, order):
            rank[index] = slot
        return True

    def _component_dependents(self, folded: int) -> list[set[int]]:
        """The component-level reverse adjacency — ``dependents[i]`` holds
        the components that read component *i*'s verdict — built when a
        growing grounding first needs it, from the first *folded* rules
        (the ones the condensation already covers), and kept current by
        :meth:`_fold_in` from then on."""
        if self._dependents is None:
            component_of = self._component_of
            dependents: list[set[int]] = [set() for _ in self._components]
            for rule in self._rule_context.rules[:folded]:
                reader = component_of[rule.head]
                for atom in (*rule.positive_body, *rule.negative_body):
                    owner = component_of[atom]
                    if owner != reader:
                        dependents[owner].add(reader)
            self._dependents = dependents
        return self._dependents

    def _reads(self, index: int, last_rule: int) -> set[int]:
        """The components component *index* reads through rules up to id
        *last_rule* (later ones are not folded in yet)."""
        rules = self._rule_context.rules
        rules_by_head = self._rule_context.rules_by_head
        component_of = self._component_of
        found: set[int] = set()
        for head in self._components[index]:
            for rule_id in rules_by_head.get(head, ()):
                if rule_id > last_rule:
                    continue
                rule = rules[rule_id]
                for atom in (*rule.positive_body, *rule.negative_body):
                    found.add(component_of[atom])
        found.discard(index)
        return found

    # ------------------------------------------------------------------ #
    # Views
    # ------------------------------------------------------------------ #
    @property
    def model(self) -> PartialInterpretation:
        """The current well-founded partial model, as a new
        interpretation (O(model): a session reads :attr:`view` instead)."""
        return PartialInterpretation(self._true | self._floating, self._false)

    @property
    def base(self) -> frozenset[Atom]:
        """The current atom universe: rule atoms plus the current facts."""
        return self._rule_atoms | self._facts

    @property
    def rule_context(self) -> GroundContext:
        """The ground rules without the facts.  Growing the grounding
        replaces this object rather than mutating it, so a published epoch
        can keep the one it was solved over."""
        return self._rule_context

    @property
    def view(self) -> ModelView:
        """The current model as an immutable
        :class:`~repro.engine.view.ModelView`, with the facts.

        Built from scratch on the first read after a full solve.  After
        that each read derives it from the previously read view and the
        atoms the refreshes in between flipped — maintained verdicts,
        fact changes and re-solved components — sharing every predicate
        that did not move.
        """
        if self._view is None:
            self._view = ModelView.build(
                self._true | self._floating,
                self._rule_atoms - self._true - self._false,
                self._facts,
            )
        elif self._flips:
            self._view = self._view.evolve(
                (atom, self._verdict(atom), atom in self._facts) for atom in self._flips
            )
        self._flips = set()
        return self._view

    def _verdict(self, atom: Atom) -> TruthValue:
        if atom in self._true or atom in self._floating:
            return TruthValue.TRUE
        if atom in self._false or atom not in self._rule_atoms:
            return TruthValue.FALSE
        return TruthValue.UNDEFINED

    @property
    def component_count(self) -> int:
        return len(self._components)

    @property
    def last_update(self) -> Optional[UpdateStats]:
        return self._last

    @property
    def epoch(self) -> int:
        """Number of successful refreshes so far — the warm model's
        version.  0 means no model has been solved yet; a failed refresh
        leaves the epoch (like the model) unchanged."""
        return self._epoch

    def statistics(self) -> dict[str, int]:
        """The shape of the solved program, read off the engine's own
        state: the component count and the largest component's size, the
        ground rules, and the atom universe's size (:attr:`base`, counted
        without building it)."""
        return {
            "components": len(self._components),
            "largest_component": max(map(len, self._components), default=0),
            "ground_rules": len(self._rule_context.rules),
            "atoms": len(self._rule_atoms) + len(self._floating),
        }

    # ------------------------------------------------------------------ #
    # Maintenance
    # ------------------------------------------------------------------ #
    def refresh(
        self, facts: AbstractSet[Atom], changed: Optional[Iterable[Atom]] = None
    ) -> UpdateStats:
        """Bring the model up to date with *facts*, the whole current EDB
        (read during the call, never kept: the engine updates its own
        fact set from *changed*).

        *changed* is the set of atoms whose fact status flipped since the
        last refresh; ``None`` forces a full (re)solve.  Returns the
        :class:`UpdateStats` describing the work done.
        """
        started = time.perf_counter()
        recorder = self._recorder
        with recorder.span("refresh") as refresh_span, metered(self._budget) as meter:
            try:
                if not self._solved or changed is None:
                    stats = self._solve_all(facts)
                else:
                    changed = set(changed)
                    if self._flips is not None:
                        self._flips.update(changed)
                    stats = self._solve_delta(facts, changed)
            except BaseException:
                # A failure mid-delta (including a budget abort) leaves
                # affected components subtracted from the aggregates but
                # not re-added, and possibly a grounder that emitted rule
                # instances the context never received: drop to unsolved
                # and ungrounded so the next refresh rebuilds from scratch
                # instead of serving the torn state.
                self._solved = False
                self._grounder = None
                self._view = self._flips = None
                raise
            finally:
                if recorder.enabled and meter.active:
                    recorder.count("budget.steps", meter.steps)
                    recorder.count("budget.elapsed_ms", int(meter.elapsed() * 1000))
            if stats.mode == "delta":
                for atom in changed:
                    if atom in facts:
                        self._facts.add(atom)
                    else:
                        self._facts.discard(atom)
            else:
                self._facts = set(facts)
            self._solved = True
            self._epoch += 1
            self._last = dataclasses.replace(
                stats, elapsed=time.perf_counter() - started
            )
        if recorder.enabled:
            refresh_span.annotate(
                mode=self._last.mode,
                changed=self._last.changed,
                components_recomputed=self._last.components_recomputed,
                components_reused=self._last.components_reused,
            )
            recorder.count("refresh.cache_hits", self._last.components_reused)
            recorder.count("refresh.changed_atoms", self._last.changed)
            recorder.count("refresh.rules_added", self._last.rules_added)
        return self._last

    def _solve_all(self, facts: AbstractSet[Atom]) -> UpdateStats:
        if self._solved:
            # A forced full solve also grounds afresh, so the only grounder
            # resumed below is the construction-time one.
            self._grounder = None
        self._solved = False
        # The next read of the view builds it from scratch.
        self._view = self._flips = None
        rules_added = 0
        if self._nonground:
            if self._grounder is None:
                rules_added = self._reground()
            grounded = self._facts
            rules_added += self._sync_grounding(facts - grounded, grounded - facts)
        self._true.clear()
        self._false.clear()
        # Any previous maintenance state described the old solved model;
        # a fresh maintainer is primed lazily from the new one.
        self._delta = None
        self._floating = set(facts - self._rule_atoms)
        methods: dict[str, int] = {}
        meter = current_meter()
        for index in sorted(range(len(self._components)), key=self._rank.__getitem__):
            meter.step("refresh")
            method = self._resolve_in_place(index, facts)
            methods[method] = methods.get(method, 0) + 1
        return UpdateStats(
            mode="initial",
            changed=0,
            components_total=len(self._components),
            components_recomputed=len(self._components),
            components_reused=0,
            floating_changed=len(self._floating),
            methods=methods,
            rules_added=rules_added,
        )

    def _solve_one(
        self, index: int, component: set[Atom], facts: AbstractSet[Atom]
    ) -> tuple[set[Atom], set[Atom], str]:
        """Dispatch one component against the aggregates, in a
        ``component`` span of the engine's recorder."""
        return solve_component(
            component,
            index,
            self._rule_context.rules,
            self._rule_context.rules_by_head,
            facts,
            self._true,
            self._false,
            recorder=self._recorder,
        )

    def _solve_delta(self, facts: AbstractSet[Atom], changed: set[Atom]) -> UpdateStats:
        rules_added = 0
        if self._grounder is not None:
            asserted = [atom for atom in changed if atom in facts]
            retracted = [atom for atom in changed if atom not in facts]
            # |stale ∪ retracted − asserted|, counted without copying stale
            # (an atom is asserted or retracted, never both).
            stale = self._stale
            count = (
                len(stale)
                + sum(atom not in stale for atom in retracted)
                - sum(atom in stale for atom in asserted)
            )
            if garbage_dominates(count, len(facts)):
                # Retracted facts the grounding still covers dominate: start
                # the grounding afresh rather than carry their instances.
                self._grounder = None
                return self._solve_all(facts)
            try:
                rules_added = self._sync_grounding(asserted, retracted)
            except BudgetError:
                raise
            except GroundingError:
                # Over `limits.max_rules`: the grounder's tally of emitted
                # instances spans every run, including those kept for
                # retracted facts, so only a fresh grounding of the current
                # facts may report the limit.
                self._grounder = None
                return self._solve_all(facts)
        stats = self._solve_delta_facts(facts, changed)
        return dataclasses.replace(stats, rules_added=rules_added) if rules_added else stats

    def _solve_delta_facts(self, facts: AbstractSet[Atom], changed: set[Atom]) -> UpdateStats:
        """Atom-level maintenance of the fact flips in *changed*: one
        :class:`DeltaMaintainer` pass."""
        changed_rule_atoms = changed & self._rule_atoms
        floating_changed = 0
        for atom in changed - self._rule_atoms:
            floating_changed += 1
            if atom in facts:
                self._floating.add(atom)
            else:
                self._floating.discard(atom)
        recorder = self._recorder
        if self._delta is None:
            self._delta = DeltaMaintainer(
                self._rule_context.rules,
                self._rule_context.rules_by_head,
                self._components,
                self._component_of,
                self._true,
                self._false,
                rank=self._rank,
            )
        meter = current_meter()

        def resolve(index: int) -> tuple[set[Atom], set[Atom]]:
            # Sound fallback for negation-through-recursion components: a
            # whole-component re-solve against the already-maintained
            # aggregates.  `solve_component` only consults the aggregates
            # for atoms *outside* the component, so the component's own
            # entries stay for the maintainer to diff against.
            comp_true, comp_false, _ = self._solve_one(index, self._components[index], facts)
            return comp_true, comp_false

        # Every verdict flip goes on the view's to-do list.
        flips = self._flips
        outcome = self._delta.apply(
            facts,
            changed_rule_atoms,
            resolve=resolve,
            sync=flips.add if flips is not None else None,
            step=lambda: meter.step("refresh"),
        )
        if recorder.enabled:
            recorder.count("delta.components", outcome.components)
            recorder.count("delta.changed_atoms", outcome.atoms_changed)
            recorder.count("delta.overdeleted", outcome.overdeleted)
            recorder.count("delta.rederived", outcome.rederived)
            recorder.count(
                "delta.resolve_fallbacks", outcome.methods.get("resolve", 0)
            )
        return UpdateStats(
            mode="delta",
            changed=len(changed),
            components_total=len(self._components),
            components_recomputed=outcome.components,
            components_reused=len(self._components) - outcome.components,
            floating_changed=floating_changed,
            methods=dict(outcome.methods),
        )
