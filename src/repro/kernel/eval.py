"""Flat-array evaluation of a compiled ground program.

One ``bytearray`` truth vector (``0`` unknown, ``1`` true, ``2`` false)
carries the entire partial model; components are solved in the compiled
callees-first order with the same cheapest-sound-method dispatch as
:mod:`repro.core.modular`, but over ints:

* singleton components resolve in one pass over their rules' CSR segments
  (no closure machinery, no set construction);
* ``horn`` / ``stratified`` components run Dowling–Gallier counter
  propagation over int watch lists — one closure, or two when some body
  literal rests on an atom left undefined below (the envelope pass);
* ``alternating`` components run the per-component alternating fixpoint
  with the ``S_P`` stages as int-set transforms.  The object engine's
  designated undefined atom (``u ← ¬u``) is replaced by its phase
  portrait: ``u`` belongs to ``Ĩ_k`` exactly for odd ``k``, so
  undefined-marker rules are enabled in odd (overestimate) stages and
  disabled in even (underestimate) stages — same fixpoint, no extra atom.
  Unfounded atoms fall out as the complement of the final envelope, via
  the same counter decrements.

The object-level modular engine stays the differential oracle: the
Hypothesis suite asserts byte-identical models across ``kernel``,
``modular`` and ``monolithic`` for every semantics family.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple

from ..config import EngineConfig, merge_entry_config
from ..core.context import GroundContext, build_context
from ..datalog.atoms import Atom
from ..datalog.grounding import GroundingLimits
from ..datalog.rules import Program
from ..exceptions import EvaluationError
from ..fixpoint.interpretations import PartialInterpretation
from ..obs.recorder import NULL_RECORDER, Recorder
from ..resilience.budget import current_meter, metered
from .compile import CompiledProgram, get_kernel

__all__ = [
    "KernelResult",
    "ComponentKernel",
    "evaluate_compiled",
    "kernel_well_founded",
    "kernel_model",
]

_UNKNOWN, _TRUE, _FALSE = 0, 1, 2
_MAX_STAGES = 10_000_000
#: Budget checkpoints are batched: one meter step per this many components
#: keeps deadline enforcement responsive without a call in the hot loop.
_METER_STRIDE = 128

_METHODS = ("horn", "stratified", "alternating")


@dataclass(frozen=True)
class KernelResult:
    """The assembled model plus the kernel's aggregate evaluation log.

    The kernel tracks per-method component counts and total stage /
    decrement counters instead of per-component reports — keeping the hot
    loop free of per-component object construction is half the speedup.
    """

    context: GroundContext
    model: PartialInterpretation
    compiled: CompiledProgram
    methods: Mapping[str, int]
    stages: int
    decrements: int

    @property
    def component_count(self) -> int:
        return self.compiled.n_components

    @property
    def is_total(self) -> bool:
        return self.model.is_total_over(self.context.base)

    def method_counts(self) -> Dict[str, int]:
        return dict(self.methods)

    def statistics(self) -> Dict[str, object]:
        return {
            "components": self.compiled.n_components,
            "methods": self.method_counts(),
            "stages": self.stages,
            **{f"kernel_{k}": v for k, v in self.compiled.statistics().items()},
            **self.context.statistics(),
        }


# --------------------------------------------------------------------- #
# Core evaluation
# --------------------------------------------------------------------- #
def evaluate_compiled(
    compiled: CompiledProgram,
    fact_ids: Optional[Iterable[int]] = None,
    tracing: bool = False,
) -> Tuple[bytearray, List[int], int, int]:
    """Evaluate every component of *compiled* bottom-up.

    Returns ``(truth, method_counts, stages, decrements)`` where *truth* is
    the dense truth vector and *method_counts* the per-method component
    tallies in :data:`_METHODS` order.  *fact_ids* overrides the compiled
    context's EDB (the incremental engine refreshes facts without
    recompiling); ``decrements`` is only tallied when *tracing* is set, the
    same contract as the object engine's ``dg.decrements``.
    """
    n_atoms = compiled.n_atoms
    truth = bytearray(n_atoms)
    is_fact = bytearray(n_atoms)
    for atom_id in compiled.fact_ids if fact_ids is None else fact_ids:
        is_fact[atom_id] = 1

    (
        heads,
        pos_off,
        pos_atoms,
        neg_off,
        neg_atoms,
        head_off,
        head_rules,
        comp_off,
        comp_atoms,
        comp_of,
    ) = compiled.hot()
    self_dep = compiled.self_dep

    method_counts = [0, 0, 0]
    stages_total = 0
    decrements = 0
    meter = current_meter()

    for comp_index in range(compiled.n_components):
        if not comp_index % _METER_STRIDE:
            meter.step("component")
        start = comp_off[comp_index]
        end = comp_off[comp_index + 1]

        # ---- singleton fast path ------------------------------------- #
        if end - start == 1:
            head = comp_atoms[start]
            if not self_dep[head]:
                satisfied = is_fact[head]
                possible = False
                marker_seen = False
                for slot in range(head_off[head], head_off[head + 1]):
                    rule = head_rules[slot]
                    killed = False
                    marker = False
                    for cursor in range(pos_off[rule], pos_off[rule + 1]):
                        value = truth[pos_atoms[cursor]]
                        if value == 1:
                            continue
                        if value == 2:
                            killed = True
                            break
                        marker = True
                    if killed:
                        continue
                    for cursor in range(neg_off[rule], neg_off[rule + 1]):
                        value = truth[neg_atoms[cursor]]
                        if value == 2:
                            continue
                        if value == 1:
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
                if satisfied:
                    truth[head] = 1
                elif not possible:
                    truth[head] = 2
                if marker_seen:
                    method_counts[1] += 1
                    stages_total += 2
                else:
                    method_counts[0] += 1
                    stages_total += 1
                continue

        # ---- general path: partial evaluation + dispatch -------------- #
        members = comp_atoms[start:end]
        local_rules, has_negation, any_marker = _partial_evaluate(
            members,
            comp_index,
            comp_of,
            truth,
            heads,
            pos_off,
            pos_atoms,
            neg_off,
            neg_atoms,
            head_off,
            head_rules,
        )
        local_facts = [atom_id for atom_id in members if is_fact[atom_id]]

        if has_negation:
            comp_set = set(members)
            comp_true, comp_false, stages, spent = _alternating_ints(
                comp_set, local_rules, local_facts, tracing
            )
            decrements += spent
            method_counts[2] += 1
            stages_total += stages
        else:
            definite, spent = _closure_ints(local_rules, local_facts, False, tracing)
            decrements += spent
            if any_marker:
                envelope, spent = _closure_ints(local_rules, local_facts, True, tracing)
                decrements += spent
                method_counts[1] += 1
                stages_total += 2
            else:
                envelope = definite
                method_counts[0] += 1
                stages_total += 1
            comp_true = definite
            comp_false = [atom_id for atom_id in members if atom_id not in envelope]

        for atom_id in comp_true:
            truth[atom_id] = 1
        for atom_id in comp_false:
            truth[atom_id] = 2

    return truth, method_counts, stages_total, decrements


def _partial_evaluate(
    members,
    comp_index: int,
    comp_of,
    truth: bytearray,
    heads,
    pos_off,
    pos_atoms,
    neg_off,
    neg_atoms,
    head_off,
    head_rules,
) -> Tuple[List[Tuple[int, List[int], List[int], bool]], bool, bool]:
    """Residual local rules of one component against the solved context.

    Mirrors the object engine's partial evaluation exactly: body atoms of
    lower components are dropped when satisfied, kill the rule when
    falsified, and raise the undefined marker when left undefined below.
    """
    local_rules: List[Tuple[int, List[int], List[int], bool]] = []
    has_negation = False
    any_marker = False
    for head in members:
        for slot in range(head_off[head], head_off[head + 1]):
            rule = head_rules[slot]
            killed = False
            marker = False
            pos_internal: List[int] = []
            neg_internal: List[int] = []
            for cursor in range(pos_off[rule], pos_off[rule + 1]):
                body = pos_atoms[cursor]
                if comp_of[body] == comp_index:
                    pos_internal.append(body)
                    continue
                value = truth[body]
                if value == 1:
                    continue
                if value == 2:
                    killed = True
                    break
                marker = True
            if killed:
                continue
            for cursor in range(neg_off[rule], neg_off[rule + 1]):
                body = neg_atoms[cursor]
                if comp_of[body] == comp_index:
                    neg_internal.append(body)
                    continue
                value = truth[body]
                if value == 2:
                    continue
                if value == 1:
                    killed = True
                    break
                marker = True
            if killed:
                continue
            if neg_internal:
                has_negation = True
            if marker:
                any_marker = True
            local_rules.append((head, pos_internal, neg_internal, marker))
    return local_rules, has_negation, any_marker


def _closure_ints(
    local_rules: List[Tuple[int, List[int], List[int], bool]],
    seed: Iterable[int],
    fire_markers: bool,
    tracing: bool,
) -> Tuple[Set[int], int]:
    """Dowling–Gallier counter propagation over one component's residual
    definite rules (negative-free by dispatch), as int sets."""
    rule_heads: List[int] = []
    counters: List[int] = []
    watchers: Dict[int, List[int]] = {}
    derived: Set[int] = set()
    frontier: List[int] = []
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
    for atom_id in seed:
        if atom_id not in derived:
            derived.add(atom_id)
            frontier.append(atom_id)
    while frontier:
        atom_id = frontier.pop()
        for rule_id in watchers.get(atom_id, ()):
            counters[rule_id] -= 1
            if not counters[rule_id]:
                head = rule_heads[rule_id]
                if head not in derived:
                    derived.add(head)
                    frontier.append(head)
    spent = 0
    if tracing:
        spent = sum(len(watchers.get(atom_id, ())) for atom_id in derived)
    return derived, spent


def _alternating_ints(
    comp_set: Set[int],
    local_rules: List[Tuple[int, List[int], List[int], bool]],
    local_facts: List[int],
    tracing: bool,
) -> Tuple[Set[int], Set[int], int, int]:
    """Per-component alternating fixpoint over int sets.

    ``S_P`` with respect to an assumed-false set keeps a rule when its
    internal negative body is entirely assumed false; undefined-marker
    rules are additionally gated on the stage parity (see the module
    docstring — this is the compiled form of the ``u ← ¬u`` construction).
    Termination compares consecutive even (underestimate) stages.
    """
    decrements = 0
    # The watch lists and counter seeds are shared across every S_P stage
    # (the compiled analogue of the object engine sharing one RuleIndex
    # across a component's stages); each stage re-seeds the counters and
    # gates rules with a per-stage `enabled` vector instead of rebuilding
    # the index.
    n_rules = len(local_rules)
    rule_heads = [rule[0] for rule in local_rules]
    base_counters = [len(rule[1]) for rule in local_rules]
    watchers: Dict[int, List[int]] = {}
    for rule_id, (_head, positive, _negative, _marker) in enumerate(local_rules):
        for body in positive:
            watchers.setdefault(body, []).append(rule_id)

    def stability(assumed_false: Set[int], markers_on: bool) -> Set[int]:
        nonlocal decrements
        counters = base_counters.copy()
        enabled = bytearray(n_rules)
        derived: Set[int] = set(local_facts)
        frontier: List[int] = list(derived)
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
            atom_id = frontier.pop()
            for rule_id in watchers.get(atom_id, ()):
                if not enabled[rule_id]:
                    continue
                counters[rule_id] -= 1
                if not counters[rule_id]:
                    head = rule_heads[rule_id]
                    if head not in derived:
                        derived.add(head)
                        frontier.append(head)
        if tracing:
            for atom_id in derived:
                for rule_id in watchers.get(atom_id, ()):
                    if enabled[rule_id]:
                        decrements += 1
        return derived

    assumed_false: Set[int] = set()
    positive = stability(assumed_false, False)
    previous_even = assumed_false
    index = 0
    while True:
        index += 1
        if index > _MAX_STAGES:
            raise EvaluationError("kernel alternating fixpoint did not converge")
        assumed_false = comp_set - positive
        positive = stability(assumed_false, index % 2 == 1)
        if not index % 2:
            if len(assumed_false) == len(previous_even) and assumed_false == previous_even:
                break
            previous_even = assumed_false
    return positive, assumed_false, index, decrements


# --------------------------------------------------------------------- #
# Batch entry point
# --------------------------------------------------------------------- #
def kernel_well_founded(
    program: Program | GroundContext,
    limits: GroundingLimits | None = None,
    full_base: bool = False,
    extra_atoms: Iterable[Atom] = (),
    strategy: str | None = None,
    config: Optional[EngineConfig] = None,
    grounder: str | None = None,
    recorder: Recorder | None = None,
) -> KernelResult:
    """The well-founded partial model via the compiled kernel.

    Accepts a :class:`~repro.datalog.rules.Program` (grounded first) or a
    pre-built :class:`GroundContext`; the compiled IR is cached on the
    context, so repeated evaluation of one grounding pays the compile once.
    *strategy* is accepted for interface parity with the object engines but
    unused — the kernel has exactly one (semi-naive, counter-driven)
    evaluation scheme.

    A tracing *recorder* captures a ``compile`` span (with the
    ``kernel.atoms`` / ``kernel.rules`` / ``kernel.bytes`` counters on a
    fresh build), an ``evaluate`` span with the aggregate method split, the
    ``kernel.decrements`` / ``kernel.stages`` counters, and an ``assemble``
    span around the model decode.
    """
    _strategy, _, limits, grounder, budget = merge_entry_config(
        config, strategy=strategy, limits=limits, grounder=grounder
    )
    recorder = recorder if recorder is not None else NULL_RECORDER
    with metered(budget):
        if isinstance(program, GroundContext):
            context = program
        else:
            context = build_context(
                program,
                limits=limits,
                full_base=full_base,
                extra_atoms=extra_atoms,
                grounder=grounder,
                recorder=recorder,
            )

        with recorder.span("compile", method="kernel") as compile_span:
            compiled = get_kernel(context, recorder=recorder)
        if recorder.enabled:
            compile_span.annotate(**compiled.statistics())

        tracing = recorder.enabled
        with recorder.span("evaluate", method="kernel") as evaluate_span:
            truth, method_counts, stages, decrements = evaluate_compiled(
                compiled, tracing=tracing
            )

        with recorder.span("assemble") as assemble_span:
            atoms = compiled.table.atoms
            true_atoms: Set[Atom] = set()
            false_atoms: Set[Atom] = set()
            for atom_id, value in enumerate(truth):
                if value == 1:
                    true_atoms.add(atoms[atom_id])
                elif value:
                    false_atoms.add(atoms[atom_id])
            model = PartialInterpretation(true_atoms, false_atoms)

    methods = {
        name: count for name, count in zip(_METHODS, method_counts) if count
    }
    if tracing:
        evaluate_span.annotate(
            components=compiled.n_components, stages=stages, **methods
        )
        assemble_span.annotate(true=len(true_atoms), false=len(false_atoms))
        recorder.count("kernel.decrements", decrements)
        recorder.count("kernel.stages", stages)
        recorder.count("components.total", compiled.n_components)
        for name, count in methods.items():
            recorder.count(f"components.{name}", count)
    return KernelResult(
        context=context,
        model=model,
        compiled=compiled,
        methods=methods,
        stages=stages,
        decrements=decrements,
    )


def kernel_model(program: Program | GroundContext, **kwargs) -> PartialInterpretation:
    """Convenience wrapper returning just the well-founded partial model."""
    return kernel_well_founded(program, **kwargs).model


# --------------------------------------------------------------------- #
# Component-at-a-time state (incremental maintenance)
# --------------------------------------------------------------------- #
class ComponentKernel:
    """Long-lived kernel state for component-at-a-time evaluation.

    The :class:`~repro.session.incremental.IncrementalEngine` owns one of
    these per session (compiled from the rule-only context) and keeps its
    ``is_fact`` vector in sync with the EDB; each
    :func:`repro.core.modular.solve_component` call then runs over the
    persistent int truth vector instead of the object-level sets.  The
    engine re-solves affected components in ascending condensation order,
    so the truth entries a component reads (its own and lower components')
    are always current even while higher components still hold stale codes.
    """

    __slots__ = ("compiled", "truth", "is_fact", "_ids")

    def __init__(self, compiled: CompiledProgram):
        self.compiled = compiled
        self.truth = bytearray(compiled.n_atoms)
        self.is_fact = bytearray(compiled.n_atoms)
        self._ids = compiled.table.ids

    # ---- EDB synchronisation ----------------------------------------- #
    def reset(self) -> None:
        """Forget every verdict (a full re-solve is about to run)."""
        self.truth = bytearray(self.compiled.n_atoms)

    def set_facts(self, facts: Iterable[Atom]) -> None:
        """Replace the fact vector wholesale (atoms outside the compiled
        universe — floating facts — are ignored; the engine handles them)."""
        vector = bytearray(self.compiled.n_atoms)
        ids = self._ids
        for atom in facts:
            atom_id = ids.get(atom)
            if atom_id is not None:
                vector[atom_id] = 1
        self.is_fact = vector

    def load(
        self,
        facts: Iterable[Atom],
        true_atoms: Iterable[Atom],
        false_atoms: Iterable[Atom],
    ) -> None:
        """Seed both vectors from an already-solved model — how a kernel
        recompiled over a grown grounding takes over its predecessor's
        verdicts (atoms outside the compiled universe are ignored)."""
        self.set_facts(facts)
        truth = bytearray(self.compiled.n_atoms)
        ids = self._ids
        for code, atoms in ((1, true_atoms), (2, false_atoms)):
            for atom in atoms:
                atom_id = ids.get(atom)
                if atom_id is not None:
                    truth[atom_id] = code
        self.truth = truth

    def update_fact(self, atom: Atom, present: bool) -> None:
        atom_id = self._ids.get(atom)
        if atom_id is not None:
            self.is_fact[atom_id] = 1 if present else 0

    def set_truth(self, atom: Atom, code: int) -> None:
        """Write one verdict (``0`` unknown, ``1`` true, ``2`` false) into
        the persistent truth vector.  Atom-level delta maintenance uses
        this to keep the vector current for verdicts it derives outside
        :meth:`solve_component`; atoms outside the compiled universe are
        ignored."""
        atom_id = self._ids.get(atom)
        if atom_id is not None:
            self.truth[atom_id] = code

    # ---- Component solving ------------------------------------------- #
    def solve_component(
        self, component: Iterable[Atom], tracing: bool = False
    ) -> Optional[Tuple[Set[Atom], Set[Atom], str, int, int, int]]:
        """Solve one component over the persistent truth vector.

        Returns ``(true, false, method, rules, stages, decrements)`` with
        the atom sets decoded back to objects, or ``None`` when some
        component atom is unknown to the compiled table (the caller falls
        back to the object path).  The component's own truth entries are
        reset first, so re-solving after an EDB change is self-contained.
        """
        ids = self._ids
        members: List[int] = []
        for atom in component:
            atom_id = ids.get(atom)
            if atom_id is None:
                return None
            members.append(atom_id)

        truth = self.truth
        for atom_id in members:
            truth[atom_id] = 0

        true_ids, false_ids, method, rule_count, stages, decrements = _solve_members(
            self.compiled, truth, self.is_fact, members, tracing
        )
        for atom_id in true_ids:
            truth[atom_id] = 1
        for atom_id in false_ids:
            truth[atom_id] = 2

        atoms = self.compiled.table.atoms
        return (
            {atoms[i] for i in true_ids},
            {atoms[i] for i in false_ids},
            method,
            rule_count,
            stages,
            decrements,
        )


def _solve_members(
    compiled: CompiledProgram,
    truth: bytearray,
    is_fact: bytearray,
    members: List[int],
    tracing: bool,
) -> Tuple[Iterable[int], Iterable[int], str, int, int, int]:
    """Solve one component (given as member ids) against *truth*.

    Shared by :class:`ComponentKernel`; the batch evaluator inlines the
    same logic (the singleton path especially) to keep its loop flat.
    Returns ``(true_ids, false_ids, method, rules, stages, decrements)``
    without writing the truth vector.
    """
    (
        heads,
        pos_off,
        pos_atoms,
        neg_off,
        neg_atoms,
        head_off,
        head_rules,
        _comp_off,
        _comp_atoms,
        comp_of,
    ) = compiled.hot()

    if len(members) == 1 and not compiled.self_dep[members[0]]:
        head = members[0]
        satisfied = is_fact[head]
        possible = False
        marker_seen = False
        rule_count = head_off[head + 1] - head_off[head]
        for slot in range(head_off[head], head_off[head + 1]):
            rule = head_rules[slot]
            killed = False
            marker = False
            for cursor in range(pos_off[rule], pos_off[rule + 1]):
                value = truth[pos_atoms[cursor]]
                if value == 1:
                    continue
                if value == 2:
                    killed = True
                    break
                marker = True
            if killed:
                continue
            for cursor in range(neg_off[rule], neg_off[rule + 1]):
                value = truth[neg_atoms[cursor]]
                if value == 2:
                    continue
                if value == 1:
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
            return (members, (), method, rule_count, stages, 0)
        if possible:
            return ((), (), method, rule_count, stages, 0)
        return ((), members, method, rule_count, stages, 0)

    comp_index = comp_of[members[0]]
    local_rules, has_negation, any_marker = _partial_evaluate(
        members,
        comp_index,
        comp_of,
        truth,
        heads,
        pos_off,
        pos_atoms,
        neg_off,
        neg_atoms,
        head_off,
        head_rules,
    )
    local_facts = [atom_id for atom_id in members if is_fact[atom_id]]
    if has_negation:
        comp_true, comp_false, stages, decrements = _alternating_ints(
            set(members), local_rules, local_facts, tracing
        )
        return (comp_true, comp_false, "alternating", len(local_rules), stages, decrements)
    definite, decrements = _closure_ints(local_rules, local_facts, False, tracing)
    if any_marker:
        envelope, spent = _closure_ints(local_rules, local_facts, True, tracing)
        decrements += spent
        method = "stratified"
        stages = 2
    else:
        envelope = definite
        method = "horn"
        stages = 1
    comp_false = [atom_id for atom_id in members if atom_id not in envelope]
    return (definite, comp_false, method, len(local_rules), stages, decrements)
