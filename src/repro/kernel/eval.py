"""Flat-array evaluation of a compiled ground program.

One ``bytearray`` truth vector (``0`` unknown, ``1`` true, ``2`` false)
carries the entire partial model; components are solved in the compiled
callees-first order with the same cheapest-sound-method dispatch as
:func:`repro.core.modular.solve_component`, over ints:

* singleton components resolve in one pass over their rules' CSR segments
  (no closure machinery, no set construction);
* every other component is evaluated partially against the truth vector
  into residual rules over int ids, which go to the residual solvers that
  sessions use too: :func:`~repro.core.modular.residual_closure` for
  ``horn`` / ``stratified`` components (one counter closure, or two when
  some body literal rests on an atom left undefined below), and
  :func:`~repro.core.modular.residual_alternating` for ``alternating``
  ones (the per-component alternating fixpoint with stage-parity
  undefined markers).

This is the one-shot well-founded evaluator.  The Hypothesis suite
asserts its models byte-identical to the monolithic alternating fixpoint,
the ``W_P`` unfounded-set iteration and a session's full solve (the
object-level :func:`~repro.core.modular.solve_component` per component).

Two entry points hand it a compiled program: a well-founded ``solve``
lowers without a context and calls :func:`evaluate_model` itself, and
:func:`kernel_model` compiles a built
:class:`~repro.core.context.GroundContext` first (the route of
``alternating_fixpoint``/``well_founded_model`` with ``engine="kernel"``).
Both return the model alone.  How the components were solved — the
per-method split, the stage and decrement totals — goes to the recorder
as the ``components.*`` and ``kernel.*`` counters, and nowhere else.

Budgets are checked once per :data:`_METER_STRIDE` components and once
per stage of an alternating component (``meter.step("alternating")``, as
the object-level :func:`~repro.core.alternating.alternating_fixpoint`
does), so one large component still honours a deadline, a step cap and a
cancel token.
"""

from __future__ import annotations

from typing import List, Set, Tuple

from ..core.context import GroundContext
from ..core.modular import residual_alternating, residual_closure
from ..datalog.atoms import Atom
from ..fixpoint.interpretations import PartialInterpretation
from ..obs.recorder import NULL_RECORDER, Recorder
from ..resilience.budget import current_meter
from .compile import CompiledProgram, get_kernel

__all__ = ["evaluate_compiled", "evaluate_model", "kernel_model"]

_UNKNOWN, _TRUE, _FALSE = 0, 1, 2
#: Budget checkpoints are batched: one meter step per this many components
#: keeps deadline enforcement responsive without a call in the hot loop.
_METER_STRIDE = 128

_METHODS = ("horn", "stratified", "alternating")


# --------------------------------------------------------------------- #
# Core evaluation
# --------------------------------------------------------------------- #
def evaluate_compiled(
    compiled: CompiledProgram, tracing: bool = False
) -> Tuple[bytearray, List[int], int, int]:
    """Evaluate every component of *compiled* bottom-up.

    Returns ``(truth, method_counts, stages, decrements)`` where *truth* is
    the dense truth vector and *method_counts* the per-method component
    tallies in :data:`_METHODS` order; ``decrements`` is only tallied when
    *tracing* is set, the same contract as the object engine's
    ``dg.decrements``.
    """
    n_atoms = compiled.n_atoms
    truth = bytearray(n_atoms)
    is_fact = bytearray(n_atoms)
    for atom_id in compiled.fact_ids:
        is_fact[atom_id] = 1

    (
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
            pos_off,
            pos_atoms,
            neg_off,
            neg_atoms,
            head_off,
            head_rules,
        )
        local_facts = [atom_id for atom_id in members if is_fact[atom_id]]

        if has_negation:
            comp_true, comp_false, stages, spent = residual_alternating(
                set(members), local_rules, local_facts, meter, tracing
            )
            decrements += spent
            method_counts[2] += 1
            stages_total += stages
        else:
            definite, spent = residual_closure(local_rules, local_facts, False, tracing)
            decrements += spent
            if any_marker:
                envelope, spent = residual_closure(local_rules, local_facts, True, tracing)
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


def evaluate_model(
    compiled: CompiledProgram, recorder: Recorder = NULL_RECORDER
) -> PartialInterpretation:
    """Evaluate *compiled* and decode its partial model: the half of a
    kernel solve after lowering, shared by :func:`kernel_model` and
    :func:`repro.engine.solver.solve_configured`.

    A tracing *recorder* captures an ``evaluate`` span with the aggregate
    method split, the ``kernel.decrements`` / ``kernel.stages`` and
    ``components.*`` counters, and an ``assemble`` span around the decode.
    """
    tracing = recorder.enabled
    with recorder.span("evaluate", method="kernel") as evaluate_span:
        truth, method_counts, stages, decrements = evaluate_compiled(
            compiled, tracing=tracing
        )

    with recorder.span("assemble") as assemble_span:
        atoms = compiled.atoms
        true_atoms: Set[Atom] = set()
        false_atoms: Set[Atom] = set()
        for atom_id, value in enumerate(truth):
            if value == 1:
                true_atoms.add(atoms[atom_id])
            elif value:
                false_atoms.add(atoms[atom_id])
        model = PartialInterpretation(true_atoms, false_atoms)

    if tracing:
        methods = {
            name: count for name, count in zip(_METHODS, method_counts) if count
        }
        evaluate_span.annotate(
            components=compiled.n_components, stages=stages, **methods
        )
        assemble_span.annotate(true=len(true_atoms), false=len(false_atoms))
        recorder.count("kernel.decrements", decrements)
        recorder.count("kernel.stages", stages)
        recorder.count("components.total", compiled.n_components)
        for name, count in methods.items():
            recorder.count(f"components.{name}", count)
    return model


def kernel_model(
    context: GroundContext, recorder: Recorder = NULL_RECORDER
) -> PartialInterpretation:
    """The well-founded partial model of a built ground *context* by the
    compiled kernel.

    The compiled IR is cached on the context, so repeated evaluation of
    one grounding pays the compile once.  The kernel has one
    (semi-naive, counter-driven) evaluation scheme, so there is no
    strategy to pass; a budget is whatever meter is ambient.  A tracing
    *recorder* captures a ``compile`` span (with the ``kernel.atoms`` /
    ``kernel.rules`` / ``kernel.bytes`` counters on a fresh build), then
    :func:`evaluate_model`'s ``evaluate`` and ``assemble`` spans.
    """
    with recorder.span("compile", method="kernel") as compile_span:
        compiled = get_kernel(context, recorder=recorder)
    if recorder.enabled:
        compile_span.annotate(**compiled.statistics())
    return evaluate_model(compiled, recorder)
