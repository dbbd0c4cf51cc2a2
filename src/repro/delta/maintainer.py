"""Atom-level delta maintenance: counting and DRed over the condensation.

The incremental engine of :mod:`repro.session.incremental` invalidates at
*component* granularity: a changed fact re-solves every SCC with a
directed path from it, even when the change cannot move a single verdict
(a redundant edge, a duplicate support, a fact asserted over an
already-true atom).  Under sustained assert/retract churn that is the
wrong granularity — the standard incremental-Datalog remedy is to keep
per-derivation state and push *differences* instead:

* **counting** — for non-recursive derivations, per-rule counters of
  violated and undefined external body literals.  A singleton component
  with no self-dependency is decided entirely by which of its rules
  definitely fire (no violated, no undefined literal) or possibly fire
  (no violated literal): exactly the one-pass verdict of
  ``_solve_singleton``, now maintained in O(changed literals) per update.
* **DRed** (delete-and-rederive) — for recursive components without
  internal negation.  The component's two closures (the definite closure
  ``T`` and the possibly-true envelope ``E`` of the horn/stratified
  methods) are maintained as materialised sets with per-rule internal
  support counters.  Deletions overdelete the affected cone inside the
  component and then rederive what still has alternative support;
  insertions propagate semi-naively.
* **resolve** — components with negation *through recursion* keep the
  sound fallback: re-solve the whole component with
  :func:`repro.core.modular.solve_component` (the alternating method),
  diffing old against new verdicts so propagation upward still stops as
  soon as nothing moved.

This mirrors the cheapest-sound-method dispatch of the component
evaluator — counting where one pass suffices, closure maintenance where
the fixpoint is definite, full alternation only where negation is
recursive — which is what makes atom-level maintenance *sound* per the
splitting structure of the well-founded semantics: a component's verdict
is a function of its local facts, its local rules and the frozen verdicts
below it, all of which the maintained counters track exactly.

Propagation runs over the condensation order: dirty components are
processed by ascending rank (callees first), each emits the set of atoms
whose three-valued verdict actually flipped, and only the rules and
components *reading* those atoms are touched.  A no-op churn step — the
common case under redundant support — therefore costs O(1) instead of
O(downstream cone).

The maintainer holds no verdicts of its own: it reads and writes the
owning engine's aggregate true/false sets, an atom in neither being
undefined, and keeps only method state — the counting counters and the
two closures of each DRed component.  The owner learns which atoms moved
through a per-atom callback, which the engine uses to keep its published
view current.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Callable, Iterable, Mapping, Optional, Sequence

from ..datalog.atoms import Atom

__all__ = ["DeltaOutcome", "DeltaMaintainer", "classify_component"]

#: Three-valued verdict codes.
_UNDEF, _TRUE, _FALSE = 0, 1, 2

#: Per-component maintenance methods, cheapest first.
MAINTENANCE_METHODS = ("counting", "dred", "resolve")


@dataclass(frozen=True)
class DeltaOutcome:
    """What one atom-level maintenance pass actually did.

    ``components`` counts the components whose state was touched (the
    analogue of ``components_recomputed``); ``methods`` splits them by
    maintenance method; ``atoms_changed`` counts the verdict flips that
    propagated; ``overdeleted`` / ``rederived`` tally the DRed traffic
    (rederived atoms were overdeleted but kept alternative support).
    """

    components: int
    atoms_changed: int
    methods: Mapping[str, int]
    overdeleted: int
    rederived: int


def classify_component(
    component: set[Atom],
    rules: Sequence,
    rules_by_head: Mapping[Atom, tuple[int, ...]],
) -> str:
    """The cheapest sound maintenance method for one component.

    ``"resolve"`` when some rule negates an atom of its own component
    (negation through recursion — only the alternating fixpoint is sound);
    ``"counting"`` for a singleton with no self-dependency (one-pass
    verdict); ``"dred"`` otherwise (recursive but definite inside).
    """
    singleton = len(component) == 1
    self_dep = False
    for head in component:
        for rule_id in rules_by_head.get(head, ()):
            rule = rules[rule_id]
            for atom in rule.negative_body:
                if atom in component:
                    return "resolve"
            if singleton and head in rule.positive_body:
                self_dep = True
    if singleton and not self_dep:
        return "counting"
    return "dred"


class DeltaMaintainer:
    """Maintains the per-component verdicts of an already-solved program
    at atom granularity.

    Constructed against the owning engine's *solved* state: the rule
    context (rules + head index), the condensation (components, component
    membership) and the aggregate ``true``/``false`` sets, which hold every
    verdict and which the maintainer updates **in place** so the engine's
    views (model, reports, explanations) stay consistent without copying.

    :meth:`apply` then brings everything up to date with one batch of
    fact flips, and :meth:`extend` takes in rules and components a growing
    grounding appends.  All mutable maintenance state (literal counters,
    support counters, materialised closures) is primed from the solved sets;
    after a failed pass the state may be torn, and the owner must discard
    the maintainer along with its solved sets (the engine's existing
    drop-to-unsolved path).
    """

    def __init__(
        self,
        rules: Sequence,
        rules_by_head: Mapping[Atom, tuple[int, ...]],
        components: list[set[Atom]],
        component_of: Mapping[Atom, int],
        true_atoms: set[Atom],
        false_atoms: set[Atom],
        rank: Sequence[int],
    ) -> None:
        self._rules = rules
        self._components = components
        self._component_of = component_of
        self._true = true_atoms
        self._false = false_atoms
        # Processing order: components are visited by ascending rank
        # (callees first).  The owner keeps the ranks topological as the
        # condensation grows; the list is shared, not copied.
        self._rank = rank

        self._kinds: list[str] = []

        # ---- static rule structure (counting / dred components only) ---- #
        self._rule_head: dict[int, Atom] = {}
        self._rule_comp: dict[int, int] = {}
        self._local_rules: dict[Atom, list[int]] = {}
        # External literal watchers: atom -> [(rule_id, positive)].
        self._watch: dict[Atom, list[tuple[int, bool]]] = {}
        # Internal positive watchers (dred components): atom -> [rule_id].
        self._int_watch: dict[Atom, list[int]] = {}
        self._int_count: dict[int, int] = {}
        # Resolve components reading an atom from below.
        self._readers: dict[Atom, list[int]] = {}

        # ---- mutable maintenance state, primed from the solved sets ----- #
        # Per-rule counts of definitely-violated / undefined external
        # literals.  A rule *definitely* fires through its externals when
        # both are zero; *possibly* when only `unsat` is zero.
        self._ext_unsat: dict[int, int] = {}
        self._ext_undef: dict[int, int] = {}
        # Counting components: per-head tallies of def/poss-firing rules.
        self._n_def: dict[Atom, int] = {}
        self._n_poss: dict[Atom, int] = {}
        self._singleton: dict[int, Atom] = {}
        # DRed components: the definite closure T, the possibly-true
        # envelope E and per-rule internal deficits |int_body \ T| /
        # |int_body \ E|.
        self._in_t: dict[int, set[Atom]] = {}
        self._in_e: dict[int, set[Atom]] = {}
        self._need_t: dict[int, int] = {}
        self._need_e: dict[int, int] = {}

        self._add_components(range(len(components)), rules_by_head)

    def _code(self, atom: Atom) -> int:
        """The current verdict of *atom*, read from the aggregate sets."""
        if atom in self._true:
            return _TRUE
        if atom in self._false:
            return _FALSE
        return _UNDEF

    def _add_components(
        self, indexes: Iterable[int], rules_by_head: Mapping[Atom, tuple[int, ...]]
    ) -> None:
        """Classify and prime components appended to the condensation (in
        index order) from their solved verdicts."""
        true_atoms, false_atoms = self._true, self._false
        for index in indexes:
            component = self._components[index]
            kind = classify_component(component, self._rules, rules_by_head)
            self._kinds.append(kind)
            if kind == "counting":
                self._singleton[index] = next(iter(component))
            elif kind == "dred":
                self._in_t[index] = component & true_atoms
                self._in_e[index] = component - false_atoms
            for head in component:
                for rule_id in rules_by_head.get(head, ()):
                    self._add_rule(rule_id, index)

    def _add_rule(self, rule_id: int, index: int) -> None:
        """Register one rule of component *index* and prime its counters
        from the current verdicts."""
        rule = self._rules[rule_id]
        component = self._components[index]
        kind = self._kinds[index]
        if kind == "resolve":
            for atom in (*rule.positive_body, *rule.negative_body):
                if atom not in component:
                    # A component's rules are registered together, so one
                    # look at the last reader keeps the list duplicate-free
                    # (a stray repeat would only re-mark a queued index).
                    found = self._readers.setdefault(atom, [])
                    if not found or found[-1] != index:
                        found.append(index)
            return
        head = rule.head
        self._rule_head[rule_id] = head
        self._rule_comp[rule_id] = index
        self._local_rules.setdefault(head, []).append(rule_id)
        internal: set[Atom] = set()
        external: set[tuple[Atom, bool]] = set()
        for atom in rule.positive_body:
            if atom in component:
                internal.add(atom)
            else:
                external.add((atom, True))
        for atom in rule.negative_body:
            # Internal negation would have classified the component as
            # "resolve".
            external.add((atom, False))
        unsat = undef = 0
        for atom, positive in external:
            self._watch.setdefault(atom, []).append((rule_id, positive))
            code = self._code(atom)
            if positive:
                unsat += code == _FALSE
                undef += code == _UNDEF
            else:
                unsat += code == _TRUE
                undef += code == _UNDEF
        self._ext_unsat[rule_id] = unsat
        self._ext_undef[rule_id] = undef
        if kind == "counting":
            self._n_poss[head] = self._n_poss.get(head, 0) + (unsat == 0)
            self._n_def[head] = self._n_def.get(head, 0) + (unsat == 0 and undef == 0)
            return
        self._int_count[rule_id] = len(internal)
        for atom in internal:
            self._int_watch.setdefault(atom, []).append(rule_id)
        in_t = self._in_t[index]
        in_e = self._in_e[index]
        self._need_t[rule_id] = sum(atom not in in_t for atom in internal)
        self._need_e[rule_id] = sum(atom not in in_e for atom in internal)

    def extend(
        self,
        rules: Sequence,
        rules_by_head: Mapping[Atom, tuple[int, ...]],
        components: Iterable[int],
        rule_ids: Iterable[int],
    ) -> bool:
        """Take in a grown program without re-priming what it kept.

        *rules* / *rules_by_head* are the grown rule context, *components*
        the indexes the owner appended to the shared condensation lists
        (already solved into the shared verdict sets), *rule_ids* the rules
        appended to components that existed before.  None of them may fire
        under the current verdicts — true of every rule instance an
        incremental grounder adds, since each has a positive body atom
        that is still false — so no verdict moves here.  Returns False
        when a grown component would change maintenance method (a new
        internal dependency); the maintainer is then stale and the owner
        must build a fresh one from the solved state.
        """
        self._rules = rules
        grown: dict[int, list[int]] = {}
        for rule_id in rule_ids:
            grown.setdefault(self._component_of[rules[rule_id].head], []).append(rule_id)
        for index in grown:
            kind = classify_component(self._components[index], rules, rules_by_head)
            if kind != self._kinds[index]:
                return False
        self._add_components(components, rules_by_head)
        for index, ids in grown.items():
            for rule_id in ids:
                self._add_rule(rule_id, index)
        return True

    # ------------------------------------------------------------------ #
    # Maintenance pass
    # ------------------------------------------------------------------ #
    def apply(
        self,
        facts: frozenset[Atom],
        changed: Iterable[Atom],
        *,
        resolve: Callable[[int], tuple[set[Atom], set[Atom]]],
        sync: Optional[Callable[[Atom], None]] = None,
        step: Optional[Callable[[], None]] = None,
    ) -> DeltaOutcome:
        """One maintenance pass over a batch of fact flips.

        *changed* are rule atoms whose EDB status differs from the solved
        state; *facts* is the full new EDB.  *resolve* re-solves one
        ``"resolve"``-kind component against the (already updated)
        aggregates and returns its new ``(true, false)`` pair, leaving the
        aggregates to this pass; *sync*, when given, receives every atom
        whose verdict flipped; *step* is called once per processed
        component (budget metering).  Returns the pass's
        :class:`DeltaOutcome`.
        """
        heap: list[tuple[int, int]] = []
        queued: set[int] = set()
        fact_dirty: dict[int, list[Atom]] = {}
        # DRed components touched through external literals this pass:
        # rule -> (def-enabled, poss-enabled) *before* the first change.
        pending: dict[int, dict[int, tuple[bool, bool]]] = {}
        methods = {"counting": 0, "dred": 0, "resolve": 0}
        atoms_changed = 0
        overdeleted = rederived = 0

        component_of = self._component_of
        true_atoms, false_atoms = self._true, self._false
        kinds = self._kinds
        ext_unsat = self._ext_unsat
        ext_undef = self._ext_undef
        rank = self._rank

        def mark(index: int) -> None:
            if index not in queued:
                queued.add(index)
                heappush(heap, (rank[index], index))

        for atom in changed:
            index = component_of[atom]
            fact_dirty.setdefault(index, []).append(atom)
            mark(index)

        def note(atom: Atom, old: int, new: int) -> None:
            """Push one verdict flip into every reader's counters."""
            for rule_id, positive in self._watch.get(atom, ()):
                if positive:
                    d_unsat = (new == _FALSE) - (old == _FALSE)
                else:
                    d_unsat = (new == _TRUE) - (old == _TRUE)
                d_undef = (new == _UNDEF) - (old == _UNDEF)
                if not d_unsat and not d_undef:
                    continue
                index = self._rule_comp[rule_id]
                unsat = ext_unsat[rule_id]
                undef = ext_undef[rule_id]
                if kinds[index] == "counting":
                    was_def = unsat == 0 and undef == 0
                    was_poss = unsat == 0
                    unsat += d_unsat
                    undef += d_undef
                    now_def = unsat == 0 and undef == 0
                    now_poss = unsat == 0
                    head = self._rule_head[rule_id]
                    moved = False
                    if now_def != was_def:
                        self._n_def[head] += 1 if now_def else -1
                        moved = True
                    if now_poss != was_poss:
                        self._n_poss[head] += 1 if now_poss else -1
                        moved = True
                    if moved:
                        mark(index)
                else:  # dred
                    events = pending.setdefault(index, {})
                    if rule_id not in events:
                        events[rule_id] = (unsat == 0 and undef == 0, unsat == 0)
                    unsat += d_unsat
                    undef += d_undef
                    mark(index)
                ext_unsat[rule_id] = unsat
                ext_undef[rule_id] = undef
            for index in self._readers.get(atom, ()):
                mark(index)

        while heap:
            index = heappop(heap)[1]
            queued.discard(index)
            kind = kinds[index]
            if step is not None:
                step()
            local_changed = fact_dirty.pop(index, ())
            if kind == "counting":
                changes = self._apply_counting(index, facts)
            elif kind == "dred":
                changes, over, reder = self._apply_dred(
                    index, pending.pop(index, {}), local_changed, facts
                )
                overdeleted += over
                rederived += reder
            else:
                changes = self._apply_resolve(index, resolve)
            methods[kind] += 1
            for atom, new in changes:
                if atom in true_atoms:
                    old = _TRUE
                    true_atoms.discard(atom)
                elif atom in false_atoms:
                    old = _FALSE
                    false_atoms.discard(atom)
                else:
                    old = _UNDEF
                if new == _TRUE:
                    true_atoms.add(atom)
                elif new == _FALSE:
                    false_atoms.add(atom)
                if sync is not None:
                    sync(atom)
                atoms_changed += 1
                note(atom, old, new)

        return DeltaOutcome(
            components=sum(methods.values()),
            atoms_changed=atoms_changed,
            methods={name: count for name, count in methods.items() if count},
            overdeleted=overdeleted,
            rederived=rederived,
        )

    # ------------------------------------------------------------------ #
    # Per-kind component passes
    # ------------------------------------------------------------------ #
    def _apply_counting(
        self, index: int, facts: frozenset[Atom]
    ) -> tuple[tuple[Atom, int], ...]:
        head = self._singleton[index]
        if head in facts or self._n_def.get(head, 0) > 0:
            new = _TRUE
        elif self._n_poss.get(head, 0) > 0:
            new = _UNDEF
        else:
            new = _FALSE
        if self._code(head) == new:
            return ()
        return ((head, new),)

    def _apply_dred(
        self,
        index: int,
        events: dict[int, tuple[bool, bool]],
        local_changed: Iterable[Atom],
        facts: frozenset[Atom],
    ) -> tuple[list[tuple[Atom, int]], int, int]:
        ext_unsat = self._ext_unsat
        ext_undef = self._ext_undef
        added_facts = [atom for atom in local_changed if atom in facts]
        removed_facts = [atom for atom in local_changed if atom not in facts]
        t_events: list[tuple[int, bool, bool]] = []
        e_events: list[tuple[int, bool, bool]] = []
        for rule_id, (was_def, was_poss) in events.items():
            now_def = ext_unsat[rule_id] == 0 and ext_undef[rule_id] == 0
            now_poss = ext_unsat[rule_id] == 0
            if now_def != was_def:
                t_events.append((rule_id, was_def, now_def))
            if now_poss != was_poss:
                e_events.append((rule_id, was_poss, now_poss))

        in_t = self._in_t[index]
        in_e = self._in_e[index]
        t_added, t_removed, over_t, reder_t = self._dred_circuit(
            in_t, self._need_t, self._def_enabled, t_events,
            added_facts, removed_facts, facts,
        )
        e_added, e_removed, over_e, reder_e = self._dred_circuit(
            in_e, self._need_e, self._poss_enabled, e_events,
            added_facts, removed_facts, facts,
        )

        changes: list[tuple[Atom, int]] = []
        for atom in t_added | t_removed | e_added | e_removed:
            if atom in in_t:
                new = _TRUE
            elif atom in in_e:
                new = _UNDEF
            else:
                new = _FALSE
            if self._code(atom) != new:
                changes.append((atom, new))
        return changes, over_t + over_e, reder_t + reder_e

    def _def_enabled(self, rule_id: int) -> bool:
        return self._ext_unsat[rule_id] == 0 and self._ext_undef[rule_id] == 0

    def _poss_enabled(self, rule_id: int) -> bool:
        return self._ext_unsat[rule_id] == 0

    def _dred_circuit(
        self,
        closure: set[Atom],
        need: dict[int, int],
        enabled: Callable[[int], bool],
        events: list[tuple[int, bool, bool]],
        added_facts: list[Atom],
        removed_facts: list[Atom],
        facts: frozenset[Atom],
    ) -> tuple[set[Atom], set[Atom], int, int]:
        """Delete-and-rederive one circuit (T or E) of a dred component.

        *closure* is the materialised closure, mutated in place; *need*
        maps each rule to its internal deficit ``|int_body \\ closure|``,
        kept exact through every membership change.  Returns the net
        ``(added, removed)`` sets plus the overdelete / rederive tallies.
        """
        int_watch = self._int_watch
        heads = self._rule_head

        # ---- overdelete: removed seeds and everything derived through
        # them, aggressively ----------------------------------------------
        overdeleted: set[Atom] = set()
        stack: list[Atom] = []

        def kill(atom: Atom) -> None:
            if atom in closure and atom not in overdeleted:
                overdeleted.add(atom)
                closure.discard(atom)
                stack.append(atom)

        for atom in removed_facts:
            kill(atom)
        for rule_id, was, now in events:
            if was and not now and need[rule_id] == 0:
                kill(heads[rule_id])
        while stack:
            atom = stack.pop()
            for rule_id in int_watch.get(atom, ()):
                firing = need[rule_id] == 0 and enabled(rule_id)
                need[rule_id] += 1
                if firing:
                    kill(heads[rule_id])

        # ---- rederive + insert: overdeleted atoms with surviving support,
        # new local facts, and newly enabled rules, semi-naively -----------
        frontier: list[Atom] = []
        newly: set[Atom] = set()
        revived: set[Atom] = set()

        def insert(atom: Atom) -> None:
            if atom in closure:
                return
            closure.add(atom)
            (revived if atom in overdeleted else newly).add(atom)
            frontier.append(atom)

        for atom in overdeleted:
            if atom in facts or any(
                need[rule_id] == 0 and enabled(rule_id)
                for rule_id in self._local_rules.get(atom, ())
            ):
                insert(atom)
        for atom in added_facts:
            insert(atom)
        for rule_id, was, now in events:
            if now and not was and need[rule_id] == 0:
                insert(heads[rule_id])
        while frontier:
            atom = frontier.pop()
            for rule_id in int_watch.get(atom, ()):
                need[rule_id] -= 1
                if need[rule_id] == 0 and enabled(rule_id):
                    insert(heads[rule_id])

        return newly, overdeleted - revived, len(overdeleted), len(revived)

    def _apply_resolve(
        self, index: int, resolve: Callable[[int], tuple[set[Atom], set[Atom]]]
    ) -> list[tuple[Atom, int]]:
        new_true, new_false = resolve(index)
        changes: list[tuple[Atom, int]] = []
        for atom in self._components[index]:
            if atom in new_true:
                new = _TRUE
            elif atom in new_false:
                new = _FALSE
            else:
                new = _UNDEF
            if self._code(atom) != new:
                changes.append((atom, new))
        return changes
