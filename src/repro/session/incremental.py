"""Incremental maintenance of the component-wise well-founded model.

The component-wise evaluator of :mod:`repro.core.modular` already exploits
the *relevance* of the well-founded semantics in space: an SCC of the atom
dependency graph only ever reads the verdicts of the components below it.
This module exploits the same structure in *time*: when the EDB changes,
the only components whose verdict can move are those with a directed path
to a changed atom — i.e. the components *upstream* of the change in the
condensation DAG.  Everything else keeps its frozen verdict.

:class:`IncrementalEngine` therefore caches, per knowledge base:

* the decomposed ground rules, head index, SCC condensation order and the
  component membership map — functions of the ground rules, which change
  only when the grounding grows (below);
* a component-level reverse adjacency (``dependents``, built on first
  use): which components read each component's verdict;
* the solved ``(true, false)`` pair and :class:`ComponentReport` of every
  component.

On :meth:`refresh` with a set of changed fact atoms, the default
``maintenance="delta"`` path hands the batch to a
:class:`~repro.delta.DeltaMaintainer`, which updates per-component
derivation state (counting for one-pass components, delete-and-rederive
for recursive definite ones) at *atom* granularity and re-solves a
component wholesale only where negation is recursive.  With
``maintenance="component"`` the original coarser path runs instead: the
affected components are the forward closure of the changed atoms'
components under ``dependents``, re-solved bottom-up (ascending
condensation index) with :func:`repro.core.modular.solve_component`,
reading the frozen verdicts of untouched components from the shared
aggregate sets.  Either way, facts
whose atom occurs in no rule at all ("floating" facts) bypass the
component machinery entirely: they are unconditionally true, nothing
depends on them, and retracting one removes it from the base outright —
exactly what a from-scratch solve of the updated program would produce,
which is what the differential property suite asserts.

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

With ``engine="kernel"`` the rule context is additionally compiled to the
flat int IR of :mod:`repro.kernel` (at construction, and again whenever
the grounding grows) and every per-component solve runs over a persistent
:class:`~repro.kernel.ComponentKernel` truth vector instead of object
sets; the dispatch, the affected-component closure and the returned
reports are identical.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Mapping, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..storage.base import FactStore

from ..analysis.dependency import build_atom_dependency_graph
from ..config import (
    DEFAULT_MAINTENANCE,
    DEFAULT_STRATEGY,
    validate_engine,
    validate_maintenance,
    validate_strategy,
)
from ..core.context import GroundContext, extend_context
from ..core.modular import (
    ComponentReport,
    ModularResult,
    fresh_undef_atom,
    solve_component,
)
from ..datalog.atoms import Atom
from ..datalog.grounding import GroundingLimits, IncrementalGrounder
from ..datalog.rules import Program
from ..delta import DeltaMaintainer
from ..exceptions import BudgetError, GroundingError
from ..fixpoint.interpretations import PartialInterpretation
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
    rules_by_positive_atom={},
    rules_by_head={},
)


@dataclass(frozen=True)
class UpdateStats:
    """What one model refresh actually did.

    ``mode`` is ``"initial"`` for the first solve, ``"delta"`` when
    atom-level maintenance absorbed the update (per-component counters and
    delete-and-rederive — the default), ``"incremental"`` when whole
    components downstream of the changed facts were re-evaluated
    (``maintenance="component"``), and ``"rebuild"`` when the owning
    knowledge base had to re-solve from scratch (a semantics outside the
    well-founded family, a non-relevant grounder or the monolithic engine).
    ``components_total`` /
    ``components_recomputed`` / ``components_reused`` quantify the reuse —
    the acceptance benchmark asserts ``components_recomputed`` stays
    proportional to the affected region, not to the program.  In
    ``"delta"`` mode ``methods`` counts components by *maintenance*
    method (``counting`` / ``dred`` / ``resolve``) rather than by solver
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
        if self.mode != "incremental":
            if not self.components_total:
                return f"{self.mode}: full re-solve of the program"
            return f"{self.mode}: all {self.components_total} components solved{grown}"
        return (
            f"incremental: {self.changed} changed atom(s), "
            f"{self.components_recomputed}/{self.components_total} components "
            f"re-evaluated, {self.components_reused} reused "
            f"({self.reuse_fraction:.0%}){grown}"
        )


class IncrementalEngine:
    """Keeps the modular well-founded model warm across EDB updates.

    Pass a :class:`~repro.storage.FactStore` (or call :meth:`observe`) and
    the engine subscribes to its change events: every mutation of the
    store — from the owning session, a batch rollback's inverse replay, or
    unrelated code holding the store — accumulates into the pending change
    set that :meth:`refresh_pending` turns into component invalidation.
    Without a store, callers hand the changed-atom set to :meth:`refresh`
    themselves, as before.
    """

    def __init__(
        self,
        rules: Program,
        strategy: str = DEFAULT_STRATEGY,
        store: "FactStore | None" = None,
        recorder: Recorder | None = None,
        budget: Budget | None = None,
        engine: str = "modular",
        maintenance: str = DEFAULT_MAINTENANCE,
        limits: GroundingLimits | None = None,
    ):
        validate_strategy(strategy)
        validate_engine(engine)
        validate_maintenance(maintenance)
        self._strategy = strategy
        self._engine_name = engine
        self._maintenance = maintenance
        self._recorder = recorder if recorder is not None else NULL_RECORDER
        # Started afresh by every refresh: the budget is a per-operation
        # deadline, so a long-lived session never "uses up" its allowance.
        self._budget = budget

        # Mutable solved state, populated by the first refresh.
        self._components: list[set[Atom]] = []
        self._component_of: dict[Atom, int] = {}
        self._comp_true: list[set[Atom]] = []
        self._comp_false: list[set[Atom]] = []
        self._reports: list[Optional[ComponentReport]] = []
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
        # The model property's per-epoch cache (the interpretation only
        # moves on a successful refresh, which bumps the epoch).
        self._model_cache: Optional[tuple[int, PartialInterpretation]] = None
        self._base_cache: Optional[tuple[frozenset, frozenset, frozenset]] = None
        # Monotone model-version counter: bumped once per *successful*
        # refresh, so two reads observing the same epoch are guaranteed to
        # observe the same model.  The query service stamps every response
        # with the epoch its snapshot was pinned at.
        self._epoch = 0

        # The rule context: decomposed ground rules, head index and the
        # atom universe they span; facts are attached per refresh.  Ground
        # rule sets are their own grounding.  Non-ground ones are grounded
        # against *store* (the EDB the grounder probes in place) by an
        # incremental grounder the engine keeps: `_facts` is then the EDB
        # the grounding covers, `_stale` the retracted facts it still
        # holds instances for.  Construction may run under an ambient
        # budget meter (a session refresh constructing its engine), so
        # each build stage ends with a checkpoint — a deadline elapsing
        # mid-construction aborts there rather than after the whole
        # condensation.
        self._source = rules
        self._nonground = not rules.is_ground
        self._limits = limits
        self._grounding_store = store
        self._grounder: Optional[IncrementalGrounder] = None
        self._stale: set[Atom] = set()
        self._facts: frozenset[Atom] = frozenset()
        if self._nonground:
            self._reground()
        else:
            self._rule_context = extend_context(_EMPTY_CONTEXT, rules)
            current_meter().check("refresh")
            self._install()

        # Store-event plumbing: the *last seen direction* per mutated atom
        # since the last successful refresh.  Keying by direction (rather
        # than a symmetric presence toggle) means duplicate same-direction
        # events — a listener replay, a rollback's inverse replay — cannot
        # cancel a genuinely pending change; an atom is pending iff its
        # last direction disagrees with the solved base.
        self._pending: dict[Atom, bool] = {}
        self._observed: "FactStore | None" = None
        if store is not None:
            self.observe(store)

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
        self._facts = frozenset(facts)
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
        the atom universe, the kernel IR, the condensation and its reverse
        adjacency — after construction or a growth of the grounding.  A
        solved model is carried over onto the new components
        (:meth:`_carry_over`); the maintainer is rebuilt lazily."""
        meter = current_meter()
        context = self._rule_context
        old_atoms = self._rule_atoms
        old_component_of, old_reports = self._component_of, self._reports
        # Release what describes the old condensation before building the
        # new one, so the two never coexist at peak.
        self._delta = None
        self._kernel = None
        self._components, self._comp_true, self._comp_false = [], [], []
        self._rule_atoms = context.base
        self._undef_atom = fresh_undef_atom(self._rule_atoms)

        # With engine="kernel" the rule context is compiled to the flat
        # int IR; every per-component solve then runs over the persistent
        # ComponentKernel state (truth + fact vectors, kept in sync below)
        # instead of the object-level sets.
        if self._engine_name == "kernel":
            from ..kernel import ComponentKernel, get_kernel

            self._kernel = ComponentKernel(get_kernel(context, self._recorder))
            meter.check("refresh")

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
            self._carry_over(old_atoms, old_component_of, old_reports)
        else:
            self._comp_true = [set() for _ in self._components]
            self._comp_false = [set() for _ in self._components]
            self._reports = [None] * len(self._components)

    def _carry_over(
        self,
        old_atoms: frozenset[Atom],
        old_component_of: Mapping[Atom, int],
        old_reports: list[Optional[ComponentReport]],
    ) -> None:
        """Map the solved model onto a condensation re-derived after the
        grounding grew.

        Under the facts the model was solved for, no new rule instance
        fires (each has a positive body atom outside the old envelope,
        hence false), so the model stays the model of the grown program:
        atoms new to the rules keep their old verdict — true for a fact
        (it was floating), false otherwise.  Components that kept their
        membership keep their reports; new or merged ones are solved
        against the unchanged verdicts below them, which reproduces those
        verdicts and gives them real reports.
        """
        facts = self._facts
        for atom in self._rule_atoms - old_atoms:
            if atom in facts:
                self._floating.discard(atom)
                self._true.add(atom)
            else:
                self._false.add(atom)
        if self._kernel is not None:
            self._kernel.load(facts, self._true, self._false)
        self._comp_true = [component & self._true for component in self._components]
        self._comp_false = [component & self._false for component in self._components]
        self._reports = []
        changed = []
        for index, component in enumerate(self._components):
            old = old_component_of.get(next(iter(component)))
            report = old_reports[old] if old is not None else None
            if (
                report is not None
                and len(report.atoms) == len(component)
                and all(old_component_of.get(atom) == old for atom in component)
            ):
                if report.index != index:
                    report = dataclasses.replace(report, index=index)
                self._reports.append(report)
            else:
                self._reports.append(None)
                changed.append(index)
        for index in changed:
            self._resolve_in_place(index)

    def _resolve_in_place(self, index: int) -> None:
        """Solve one component against the current verdicts and store its
        verdicts and report."""
        component = self._components[index]
        comp_true, comp_false, report = self._solve_one(index, component, self._facts)
        self._true.difference_update(component)
        self._false.difference_update(component)
        self._true |= comp_true
        self._false |= comp_false
        self._comp_true[index] = comp_true
        self._comp_false[index] = comp_false
        self._reports[index] = report

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
                self._comp_true.append(set())
                self._comp_false.append(set())
                self._reports.append(None)
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

        meter = current_meter()
        self._rule_atoms = self._rule_context.base
        undef = self._undef_atom.predicate
        if any(next(iter(self._components[index])).predicate == undef for index in new_components):
            self._undef_atom = fresh_undef_atom(self._rule_atoms)
        if self._kernel is not None:
            from ..kernel import ComponentKernel, get_kernel

            self._kernel = ComponentKernel(get_kernel(self._rule_context, self._recorder))
            self._kernel.load(self._facts, self._true, self._false)
            meter.check("refresh")
        for index in sorted(new_components, key=rank.__getitem__):
            self._floating.difference_update(self._components[index])
            self._resolve_in_place(index)
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

    def _component_dependents(self, folded: Optional[int] = None) -> list[set[int]]:
        """The component-level reverse adjacency — ``dependents[i]`` holds
        the components that read component *i*'s verdict — built on first
        use (only growing groundings and ``maintenance="component"`` need
        it) from the first *folded* rules (all by default: the ones the
        condensation already covers), and kept current by
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
    # Store change events
    # ------------------------------------------------------------------ #
    def observe(self, store: "FactStore") -> None:
        """Subscribe to *store*'s change events (replacing any previous
        subscription); mutations accumulate for :meth:`refresh_pending`."""
        if self._observed is not None:
            self._observed.unsubscribe(self._record_change)
        self._observed = store
        store.subscribe(self._record_change)

    def detach(self) -> None:
        """Unsubscribe from the observed store, if any."""
        if self._observed is not None:
            self._observed.unsubscribe(self._record_change)
            self._observed = None

    def _record_change(self, atom: Atom, added: bool) -> None:
        self._pending[atom] = added

    @property
    def pending_changes(self) -> frozenset[Atom]:
        """Atoms whose fact status flipped since the last refresh (as seen
        through the observed store's events): the last recorded direction
        disagrees with the solved base, so assert+retract pairs cancel
        while repeated same-direction events stay pending."""
        return frozenset(
            atom
            for atom, added in self._pending.items()
            if added != (atom in self._facts)
        )

    def refresh_pending(self, facts: frozenset[Atom]) -> UpdateStats:
        """:meth:`refresh` driven by the observed store's change events.

        Before the first solve the refresh is full; afterwards only the
        components upstream of the pending changes are re-evaluated.  The
        pending set is drained only on success — a failed refresh leaves
        it queued so the next call retries the same delta.
        """
        changed = set(self.pending_changes) if self._solved else None
        stats = self.refresh(facts, changed)
        self._pending.clear()
        return stats

    # ------------------------------------------------------------------ #
    # Views
    # ------------------------------------------------------------------ #
    @property
    def strategy(self) -> str:
        return self._strategy

    @property
    def engine(self) -> str:
        """The per-component solver in use: ``"modular"`` (object sets) or
        ``"kernel"`` (compiled flat-array state)."""
        return self._engine_name

    @property
    def maintenance(self) -> str:
        """The update-maintenance granularity: ``"delta"`` (atom-level
        counters / DRed) or ``"component"`` (whole-component re-solve)."""
        return self._maintenance

    @property
    def model(self) -> PartialInterpretation:
        """The current well-founded partial model (cached per epoch — the
        interpretation only changes on a successful refresh)."""
        cache = self._model_cache
        if cache is not None and cache[0] == self._epoch:
            return cache[1]
        model = PartialInterpretation(self._true | self._floating, self._false)
        self._model_cache = (self._epoch, model)
        return model

    @property
    def base(self) -> frozenset[Atom]:
        """The current atom universe: rule atoms plus the current facts
        (cached until either moves)."""
        cache = self._base_cache
        if cache is None or cache[0] is not self._rule_atoms or cache[1] is not self._facts:
            cache = (self._rule_atoms, self._facts, self._rule_atoms | self._facts)
            self._base_cache = cache
        return cache[2]

    @property
    def context(self) -> GroundContext:
        """A :class:`GroundContext` for the current program state (used by
        the explainer and the stats renderers)."""
        return dataclasses.replace(self._rule_context, facts=self._facts, base=self.base)

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

    def modular_result(self) -> ModularResult:
        """The solved state as a :class:`~repro.core.modular.ModularResult`
        (per-component reports over the current context)."""
        reports = tuple(report for report in self._reports if report is not None)
        return ModularResult(context=self.context, model=self.model, components=reports)

    # ------------------------------------------------------------------ #
    # Maintenance
    # ------------------------------------------------------------------ #
    def refresh(
        self, facts: frozenset[Atom], changed: Optional[Iterable[Atom]] = None
    ) -> UpdateStats:
        """Bring the model up to date with *facts*.

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
                    stats = self._solve_delta(facts, set(changed))
            except BaseException:
                # A failure mid-delta (including a budget abort) leaves
                # affected components subtracted from the aggregates but
                # not re-added, and possibly a grounder that emitted rule
                # instances the context never received: drop to unsolved
                # and ungrounded so the next refresh rebuilds from scratch
                # instead of serving the torn state.
                self._solved = False
                self._grounder = None
                raise
            finally:
                if recorder.enabled and meter.active:
                    recorder.count("budget.steps", meter.steps)
                    recorder.count("budget.elapsed_ms", int(meter.elapsed() * 1000))
            self._facts = facts
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

    def _solve_all(self, facts: frozenset[Atom]) -> UpdateStats:
        if self._solved:
            # A forced full solve also grounds afresh, so the only grounder
            # resumed below is the construction-time one.
            self._grounder = None
        self._solved = False
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
        if self._kernel is not None:
            # Every component is about to be re-solved in order, so a fresh
            # truth vector suffices; the fact vector is rebuilt wholesale.
            self._kernel.reset()
            self._kernel.set_facts(facts)
        self._floating = set(facts - self._rule_atoms)
        methods: dict[str, int] = {}
        meter = current_meter()
        for index in sorted(range(len(self._components)), key=self._rank.__getitem__):
            component = self._components[index]
            meter.step("refresh")
            comp_true, comp_false, report = self._solve_one(index, component, facts)
            self._comp_true[index] = comp_true
            self._comp_false[index] = comp_false
            self._reports[index] = report
            self._true |= comp_true
            self._false |= comp_false
            methods[report.method] = methods.get(report.method, 0) + 1
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
        self, index: int, component: set[Atom], facts: frozenset[Atom]
    ) -> tuple[set[Atom], set[Atom], ComponentReport]:
        """Dispatch one component, wrapping it in a ``component`` span when
        a tracing recorder is attached (the null path adds no calls)."""
        recorder = self._recorder
        if recorder.enabled:
            with recorder.span("component") as comp_span:
                comp_true, comp_false, report = solve_component(
                    component,
                    index,
                    self._rule_context.rules,
                    self._rule_context.rules_by_head,
                    facts,
                    self._true,
                    self._false,
                    self._undef_atom,
                    self._strategy,
                    recorder=recorder,
                    kernel=self._kernel,
                )
                comp_span.annotate(
                    index=index,
                    method=report.method,
                    size=report.size,
                    rules=report.rules,
                    stages=report.stages,
                )
                recorder.count(f"components.{report.method}")
            return comp_true, comp_false, report
        return solve_component(
            component,
            index,
            self._rule_context.rules,
            self._rule_context.rules_by_head,
            facts,
            self._true,
            self._false,
            self._undef_atom,
            self._strategy,
            kernel=self._kernel,
        )

    def _solve_delta(self, facts: frozenset[Atom], changed: set[Atom]) -> UpdateStats:
        rules_added = 0
        if self._grounder is not None:
            asserted = [atom for atom in changed if atom in facts]
            retracted = [atom for atom in changed if atom not in facts]
            stale = len(self._stale.union(retracted).difference(asserted))
            if garbage_dominates(stale, len(facts)):
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

    def _solve_delta_facts(self, facts: frozenset[Atom], changed: set[Atom]) -> UpdateStats:
        changed_rule_atoms = changed & self._rule_atoms
        if self._kernel is not None:
            for atom in changed_rule_atoms:
                self._kernel.update_fact(atom, atom in facts)
        floating_changed = 0
        for atom in changed - self._rule_atoms:
            floating_changed += 1
            if atom in facts:
                self._floating.add(atom)
            else:
                self._floating.discard(atom)
        if self._maintenance == "delta":
            return self._solve_delta_atoms(
                facts, changed, changed_rule_atoms, floating_changed
            )
        return self._solve_delta_components(
            facts, changed, changed_rule_atoms, floating_changed
        )

    def _solve_delta_atoms(
        self,
        facts: frozenset[Atom],
        changed: set[Atom],
        changed_rule_atoms: set[Atom],
        floating_changed: int,
    ) -> UpdateStats:
        """Atom-level maintenance: one :class:`DeltaMaintainer` pass."""
        recorder = self._recorder
        if self._delta is None:
            self._delta = DeltaMaintainer(
                self._rule_context.rules,
                self._rule_context.rules_by_head,
                self._components,
                self._component_of,
                self._comp_true,
                self._comp_false,
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
            # stale entries need no subtraction first.
            comp_true, comp_false, report = self._solve_one(
                index, self._components[index], facts
            )
            self._reports[index] = report
            return comp_true, comp_false

        sync = self._kernel.set_truth if self._kernel is not None else None
        outcome = self._delta.apply(
            facts,
            changed_rule_atoms,
            resolve=resolve,
            sync=sync,
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

    def _solve_delta_components(
        self,
        facts: frozenset[Atom],
        changed: set[Atom],
        changed_rule_atoms: set[Atom],
        floating_changed: int,
    ) -> UpdateStats:
        """Component-level invalidation (``maintenance="component"``)."""
        recorder = self._recorder
        with recorder.span("affected") as affected_span:
            # Forward closure of the changed components under `dependents`.
            dependents = self._component_dependents()
            affected: set[int] = {
                self._component_of[atom] for atom in changed_rule_atoms
            }
            frontier = list(affected)
            while frontier:
                for reader in dependents[frontier.pop()]:
                    if reader not in affected:
                        affected.add(reader)
                        frontier.append(reader)

            order = sorted(affected, key=self._rank.__getitem__)
        if recorder.enabled:
            affected_span.annotate(changed=len(changed), components=len(order))
        for index in order:
            self._true -= self._comp_true[index]
            self._false -= self._comp_false[index]
        methods: dict[str, int] = {}
        meter = current_meter()
        for index in order:
            meter.step("refresh")
            comp_true, comp_false, report = self._solve_one(
                index, self._components[index], facts
            )
            self._comp_true[index] = comp_true
            self._comp_false[index] = comp_false
            self._reports[index] = report
            self._true |= comp_true
            self._false |= comp_false
            methods[report.method] = methods.get(report.method, 0) + 1
        return UpdateStats(
            mode="incremental",
            changed=len(changed),
            components_total=len(self._components),
            components_recomputed=len(order),
            components_reused=len(self._components) - len(order),
            floating_changed=floating_changed,
            methods=methods,
        )
