"""Component-wise alternating fixpoint: solve one SCC at a time.

The monolithic alternating fixpoint (Section 5) re-derives the *entire*
ground program at every stage ``Ĩ_{k+1} = S̃_P(Ĩ_k)``, so a program made of
``c`` independent or layered negation clusters pays ``O(c)`` alternating
stages × whole-program ``S_P`` cost.  But the well-founded semantics is
*relevant*: an atom's verdict only depends on the atoms it transitively
depends on (the Section 8 dependency-graph analyses, here at ground-atom
granularity).  So the model can be assembled over the strongly connected
components of the atom dependency graph (the kernel condenses its int IR,
:func:`repro.kernel.condense`; a session runs
:func:`repro.analysis.dependency.tarjan_scc` over its own rules), solved
callees first, each solved component's true/false atoms frozen as fixed
context for the components above it.

:func:`solve_component` solves one component against that context.  It
first evaluates the component's rules partially against the verdicts
below: a satisfied body literal is dropped, a falsified one kills the
rule, and one resting on an atom left *undefined* below leaves an
*undefined marker* on the rule.  The residual rules go to the cheapest
sound method:

* ``"horn"`` — no negation left and no marker: one semi-naive counter
  closure (:func:`residual_closure`); underivable atoms of the component
  are false;
* ``"stratified"`` — no negation left inside the component, but some
  marker: two counter closures — the definite closure gives the true
  atoms, the closure that also fires the marker rules gives the envelope
  of possibly-true atoms; atoms outside the envelope are false,
  inside-but-underived undefined;
* ``"alternating"`` — negation through recursion inside the component:
  the alternating fixpoint of the residual rules alone
  (:func:`residual_alternating`).  Its even stages underestimate and its
  odd stages overestimate the negative conclusions, so a marker rule
  fires in odd stages only: the undefined literal behind the marker is
  false in every underestimate and true in every overestimate.  These
  stage-parity markers are the three-valued partial evaluation of the
  splitting property of the well-founded semantics, with no extra atom
  and no component-local grounding.

Two callers run this dispatch, one per job, over the same two residual
solvers, which are generic over hashable atom keys.  A one-shot solve
runs its compiled form over interned ints (:mod:`repro.kernel`); a
session (:mod:`repro.session.incremental`) calls :func:`solve_component`
over atom objects, for every component on its first solve and afterwards
for each component an update forces it to re-solve.  Partial evaluation
and the singleton fast path are written once per representation (verdict
sets here, a truth vector and CSR arrays in the kernel).  Neither keeps a
per-component log: each reports to its recorder, a session as one
``component`` span per solved component (attributes ``index``,
``method``, ``size``, ``rules``, ``stages``) and the
``components.<method>`` counters, the kernel as the same counters
aggregated.  The equality of both callers with the monolithic
alternating fixpoint and with the unfounded-set characterisation is
checked by the differential property tests.
"""

from __future__ import annotations

from typing import AbstractSet, Collection, Hashable, Iterable, Mapping, Sequence, TypeVar

from ..datalog.atoms import Atom
from ..exceptions import EvaluationError
from ..obs.recorder import NULL_RECORDER, Recorder
from ..resilience.budget import Meter, current_meter

__all__ = [
    "residual_alternating",
    "residual_closure",
    "solve_component",
]

_MAX_STAGES = 10_000_000

K = TypeVar("K", bound=Hashable)

#: One residual rule of a component: its head, its positive and negative
#: body atoms inside the component, and its undefined marker.
ResidualRule = tuple[K, Sequence[K], Sequence[K], bool]


def solve_component(
    component: set[Atom],
    comp_index: int,
    rules: Sequence,
    rules_by_head: Mapping[Atom, tuple[int, ...]],
    facts: AbstractSet[Atom],
    true_atoms: set[Atom],
    false_atoms: set[Atom],
    *,
    recorder: Recorder = NULL_RECORDER,
) -> tuple[set[Atom], set[Atom], str]:
    """Solve one strongly connected component against its solved context.

    *true_atoms* / *false_atoms* are the verdicts of the components already
    evaluated (everything this component's rules can reach outside itself
    must be decided or deliberately left undefined there); they are read,
    never written.  Returns the component's true set, false set and the
    method that solved it.  This is the unit of work of the incremental
    maintenance of :mod:`repro.session`, which runs it for every component
    on a full solve and afterwards only for components downstream of a
    changed fact.  Budgets are checked once per stage of an alternating
    component, against the ambient meter.

    The solve runs inside a ``component`` span of *recorder*.  A tracing
    recorder gets the span's ``index``, ``method``, ``size``, ``rules``
    (residual rules) and ``stages`` (counter closures for ``horn`` and
    ``stratified``, ``S̃_P`` applications for ``alternating``), and the
    ``components.<method>``, ``alternating.stages`` and ``dg.decrements``
    counters.
    """
    with recorder.span("component") as span:
        # The vast majority of components are single atoms with no
        # self-dependency; their verdict falls out of one pass over their
        # rules with no closure machinery at all.
        solved = None
        if len(component) == 1:
            solved = _solve_singleton(
                component, rules, rules_by_head, facts, true_atoms, false_atoms
            )
        if solved is None:
            solved = _solve_residual(
                component, rules, rules_by_head, facts, true_atoms, false_atoms, recorder
            )
        comp_true, comp_false, method, rule_count, stages = solved
        if recorder.enabled:
            span.annotate(
                index=comp_index,
                method=method,
                size=len(component),
                rules=rule_count,
                stages=stages,
            )
            recorder.count(f"components.{method}")
    return comp_true, comp_false, method


def _solve_residual(
    component: set[Atom],
    rules,
    rules_by_head,
    facts: AbstractSet[Atom],
    true_atoms: set[Atom],
    false_atoms: set[Atom],
    recorder: Recorder,
):
    """Evaluate a component's rules partially against the verdicts below
    and hand the residual rules to the cheapest sound solver.  Returns
    ``(true, false, method, rules, stages)``."""
    # ---- partial evaluation against the solved context --------------- #
    local_rules: list[ResidualRule[Atom]] = []
    has_internal_negation = False
    any_marker = False
    for head in component:
        for rule_id in rules_by_head.get(head, ()):
            rule = rules[rule_id]
            killed = False
            positive_internal: list[Atom] = []
            negative_internal: list[Atom] = []
            marker = False
            for atom in rule.positive_body:
                if atom in component:
                    positive_internal.append(atom)
                elif atom in true_atoms:
                    continue  # satisfied; drop the literal
                elif atom in false_atoms:
                    killed = True
                    break
                else:
                    marker = True  # undefined below
            if not killed:
                for atom in rule.negative_body:
                    if atom in component:
                        negative_internal.append(atom)
                    elif atom in false_atoms:
                        continue  # satisfied; drop the literal
                    elif atom in true_atoms:
                        killed = True
                        break
                    else:
                        marker = True  # undefined below
            if killed:
                continue
            if negative_internal:
                has_internal_negation = True
            if marker:
                any_marker = True
            local_rules.append((head, positive_internal, negative_internal, marker))

    local_facts = component & facts

    # ---- cheapest-sound-method dispatch ------------------------------ #
    tracing = recorder.enabled
    if has_internal_negation:
        method = "alternating"
        comp_true, comp_false, stages, spent = residual_alternating(
            component, local_rules, local_facts, current_meter(), tracing
        )
        if tracing:
            recorder.count("alternating.stages", stages)
    else:
        definite, spent = residual_closure(local_rules, local_facts, False, tracing)
        if any_marker:
            method = "stratified"
            envelope, more = residual_closure(local_rules, local_facts, True, tracing)
            spent += more
            stages = 2
        else:
            method = "horn"
            envelope = definite
            stages = 1
        comp_true = definite
        comp_false = component - envelope
    if tracing:
        recorder.count("dg.decrements", spent)
    return comp_true, comp_false, method, len(local_rules), stages


def _solve_singleton(
    component: set[Atom],
    rules,
    rules_by_head,
    facts: AbstractSet[Atom],
    true_atoms: set[Atom],
    false_atoms: set[Atom],
):
    """Resolve a single-atom component without closure machinery.

    Returns ``(true, false, method, rules, stages)`` or ``None`` when the
    atom depends on itself (a genuine one-atom SCC with a loop), which the
    generic dispatcher handles.
    """
    head = next(iter(component))
    satisfied = head in facts
    possible = False
    rule_count = 0
    marker_seen = False
    for rule_id in rules_by_head.get(head, ()):
        rule = rules[rule_id]
        rule_count += 1
        killed = False
        marker = False
        for atom in rule.positive_body:
            if atom == head:
                return None  # self-dependent: generic path
            if atom in true_atoms:
                continue
            if atom in false_atoms:
                killed = True
                break
            marker = True
        if killed:
            continue
        for atom in rule.negative_body:
            if atom == head:
                return None  # self-dependent: generic path
            if atom in false_atoms:
                continue
            if atom in true_atoms:
                killed = True
                break
            marker = True
        if killed:
            continue
        if marker:
            marker_seen = True
            possible = True
        else:
            satisfied = True
    method = "stratified" if marker_seen else "horn"
    stages = 2 if marker_seen else 1
    if satisfied:
        return {head}, set(), method, rule_count, stages
    if possible:
        return set(), set(), method, rule_count, stages
    return set(), {head}, method, rule_count, stages


# --------------------------------------------------------------------- #
# The residual solvers, shared with the compiled kernel
# --------------------------------------------------------------------- #
def residual_closure(
    local_rules: Sequence[ResidualRule[K]],
    seed: Iterable[K],
    fire_markers: bool,
    tracing: bool = False,
) -> tuple[set[K], int]:
    """Least set containing *seed* closed under one component's residual
    definite rules, by Dowling–Gallier counter propagation.

    Marker rules take part only when *fire_markers* is set (the envelope
    closure of the stratified method).  Rules with internal negation never
    reach here: the dispatch sends those components to
    :func:`residual_alternating`.  Returns the derived set and, when
    *tracing*, the number of counter decrements (else 0).
    """
    rule_heads: list[K] = []
    counters: list[int] = []
    watchers: dict[K, list[int]] = {}
    derived: set[K] = set()
    frontier: list[K] = []
    for head, positive, _negative, marker in local_rules:
        if marker and not fire_markers:
            continue
        if not positive:
            if head not in derived:
                derived.add(head)
                frontier.append(head)
            continue
        rule_id = len(rule_heads)
        rule_heads.append(head)
        counters.append(len(positive))
        for body in positive:
            watchers.setdefault(body, []).append(rule_id)
    for atom in seed:
        if atom not in derived:
            derived.add(atom)
            frontier.append(atom)
    while frontier:
        atom = frontier.pop()
        for rule_id in watchers.get(atom, ()):
            counters[rule_id] -= 1
            if not counters[rule_id]:
                head = rule_heads[rule_id]
                if head not in derived:
                    derived.add(head)
                    frontier.append(head)
    spent = 0
    if tracing:
        spent = sum(len(watchers.get(atom, ())) for atom in derived)
    return derived, spent


def residual_alternating(
    component: AbstractSet[K],
    local_rules: Sequence[ResidualRule[K]],
    local_facts: Collection[K],
    meter: Meter,
    tracing: bool = False,
) -> tuple[set[K], set[K], int, int]:
    """The alternating fixpoint of one component's residual rules.

    ``S_P`` with respect to an assumed-false set keeps a rule when its
    internal negative body is entirely assumed false; marker rules are
    also gated on the stage parity (see the module docstring): enabled in
    odd (overestimate) stages, disabled in even (underestimate) ones.
    Termination compares consecutive even stages, and each stage counts
    one *meter* step.  Returns the true atoms, the false atoms, the number
    of ``S̃_P`` applications and, when *tracing*, the number of counter
    decrements (else 0).
    """
    decrements = 0
    # The watch lists and counter seeds are shared across every S_P stage;
    # each stage re-seeds the counters and gates rules with a per-stage
    # `enabled` vector instead of rebuilding them.
    n_rules = len(local_rules)
    rule_heads = [rule[0] for rule in local_rules]
    base_counters = [len(rule[1]) for rule in local_rules]
    watchers: dict[K, list[int]] = {}
    for rule_id, (_head, positive, _negative, _marker) in enumerate(local_rules):
        for body in positive:
            watchers.setdefault(body, []).append(rule_id)

    def stability(assumed_false: AbstractSet[K], markers_on: bool) -> set[K]:
        nonlocal decrements
        counters = base_counters.copy()
        enabled = bytearray(n_rules)
        derived: set[K] = set(local_facts)
        frontier: list[K] = list(derived)
        for rule_id, (head, positive, negative, marker) in enumerate(local_rules):
            if marker and not markers_on:
                continue
            usable = True
            for body in negative:
                if body not in assumed_false:
                    usable = False
                    break
            if not usable:
                continue
            if positive:
                enabled[rule_id] = 1
            elif head not in derived:
                derived.add(head)
                frontier.append(head)
        while frontier:
            atom = frontier.pop()
            for rule_id in watchers.get(atom, ()):
                if not enabled[rule_id]:
                    continue
                counters[rule_id] -= 1
                if not counters[rule_id]:
                    head = rule_heads[rule_id]
                    if head not in derived:
                        derived.add(head)
                        frontier.append(head)
        if tracing:
            for atom in derived:
                for rule_id in watchers.get(atom, ()):
                    if enabled[rule_id]:
                        decrements += 1
        return derived

    assumed_false: set[K] = set()
    positive = stability(assumed_false, False)
    previous_even = assumed_false
    index = 0
    while True:
        index += 1
        meter.step("alternating")
        if index > _MAX_STAGES:
            raise EvaluationError("component alternating fixpoint did not converge")
        assumed_false = component - positive
        positive = stability(assumed_false, index % 2 == 1)
        if not index % 2:
            if len(assumed_false) == len(previous_even) and assumed_false == previous_even:
                break
            previous_even = assumed_false
    return positive, assumed_false, index, decrements
