"""Ground evaluation contexts.

Every operator of the paper (``T_P``, ``S_P``, ``S̃_P``, ``A_P``, ``U_P``,
``W_P``) is defined on the Herbrand instantiation of a program.  The
:class:`GroundContext` bundles a ground program together with the atom
universe the operators work over:

* ``rules`` — the ground non-fact rules, decomposed into head / positive
  body / negative body;
* ``facts`` — the ground atoms asserted unconditionally;
* ``base`` — the atom universe ``H`` relative to which complements and
  conjugates (Definition 3.2) are taken;
* ``rules_by_head`` — the rules deriving each atom, read by the
  unfounded-set, Fitting and completion operators, the explainer and
  sessions' component solves.

The watch lists of semi-naive evaluation are not part of the context:
:func:`repro.evaluation.indexes.get_index` derives them (both polarities)
for the object-level evaluators that read them, and the compiled kernel
builds its own int IR (:mod:`repro.kernel.compile`).

By default the base is the set of atoms *occurring* in the ground program.
Atoms of the full Herbrand base that never occur in any rule cannot be
derived under any semantics implemented here, so restricting to occurring
atoms changes nothing except keeping the negative sets small; pass
``full_base=True`` to :func:`build_context` to use the complete Herbrand
base instead (useful when reproducing the paper's examples verbatim, whose
tables list every ``p(x)`` atom).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Mapping, Optional, Sequence

from ..config import DEFAULT_GROUNDER, validate_grounder
from ..datalog.atoms import Atom
from ..datalog.grounding import (
    GroundingLimits,
    herbrand_base,
    naive_ground,
    stream_relevant_ground,
)
from ..datalog.rules import Program, Rule
from ..obs.recorder import NULL_RECORDER, Recorder
from ..resilience.budget import current_meter
if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..config import EngineConfig
    from ..storage.base import FactStore

__all__ = ["GroundRule", "GroundContext", "build_context", "extend_context"]


@dataclass(frozen=True)
class GroundRule:
    """A ground rule split into the pieces the operators consume."""

    head: Atom
    positive_body: tuple[Atom, ...]
    negative_body: tuple[Atom, ...]
    source: Rule

    def __str__(self) -> str:
        return str(self.source)


@dataclass(frozen=True)
class GroundContext:
    """A ground program prepared for fixpoint evaluation.

    The context is immutable and reusable: all the operators in
    :mod:`repro.core` take a context plus the varying literal sets, so one
    grounding pays for every semantics computed on the program.
    """

    program: Program
    rules: tuple[GroundRule, ...]
    facts: frozenset[Atom]
    base: frozenset[Atom]
    rules_by_head: Mapping[Atom, tuple[int, ...]]

    @property
    def atom_count(self) -> int:
        return len(self.base)

    @property
    def rule_count(self) -> int:
        return len(self.rules) + len(self.facts)

    def atoms_of_predicate(self, predicate: str) -> set[Atom]:
        return {atom for atom in self.base if atom.predicate == predicate}

    def statistics(self) -> dict[str, int]:
        return {
            "ground_rules": len(self.rules),
            "facts": len(self.facts),
            "atoms": len(self.base),
        }


def build_context(
    program: Program,
    limits: GroundingLimits | None = None,
    full_base: bool = False,
    extra_atoms: Iterable[Atom] = (),
    grounder: str | None = None,
    config: "EngineConfig | None" = None,
    store: "FactStore | None" = None,
    recorder: Recorder | None = None,
) -> GroundContext:
    """Ground *program* and build an evaluation context.

    Parameters
    ----------
    program:
        The input program (ground or not).
    limits:
        Grounding limits forwarded to the grounder.
    full_base:
        When true, the base is the full Herbrand base over the program's IDB
        predicates (plus all occurring atoms); when false (default) only the
        occurring atoms.
    extra_atoms:
        Additional ground atoms to include in the base, e.g. query atoms the
        caller wants a definite truth value for even if they occur nowhere.
    grounder:
        ``"relevant"`` (default) instantiates only rules whose positive body
        is supportable — equivalent for the well-founded, stable, stratified,
        Horn and inflationary semantics.  It runs the indexed semi-naive
        grounder and consumes its rule stream incrementally: facts are
        split off in the same pass that grounds, with no intermediate
        program materialised first, and the rules are then decomposed and
        indexed by :func:`extend_context`.
        ``"naive"`` is the literal Herbrand instantiation ``P_H``; the
        Fitting semantics needs it because it can leave *underivable* atoms
        undefined rather than false.
    config:
        An :class:`~repro.config.EngineConfig` supplying ``grounder`` and
        ``limits`` together; the per-field keywords, when given, take
        precedence.
    store:
        An optional :class:`~repro.storage.FactStore` supplying EDB facts
        alongside the program's own fact rules.  With the default
        ``"relevant"`` grounder and a non-ground program, the store's rows
        and bound-position indexes are probed in place by the streaming
        grounder — the per-solve copy of the fact base into a fresh
        ``RelationStore`` disappears.  Ground programs and the other
        grounders materialise the store's facts into the program instead
        (preserving their exact historical rule sets and atom bases).
    recorder:
        Optional :class:`~repro.obs.Recorder`; a tracing recorder captures
        the whole grounding-plus-context pass as one ``ground`` span
        (annotated with the resulting rule/fact/atom counts) and the
        grounder's round/delta counters.
    """
    if config is not None:
        if grounder is None:
            grounder = config.grounder
        if limits is None:
            limits = config.limits
    validate_grounder(grounder if grounder is not None else DEFAULT_GROUNDER)
    if grounder is None:
        grounder = DEFAULT_GROUNDER
    recorder = recorder if recorder is not None else NULL_RECORDER
    with recorder.span("ground", grounder=grounder) as ground_span:
        if store is not None and (program.is_ground or grounder != "relevant"):
            program = Program.union(store.as_program(), program)
            store = None
        grounded: Program | None
        if program.is_ground:
            grounded = program
            rule_stream: Iterable[Rule] = program
        elif grounder == "naive":
            grounded = naive_ground(program, limits)
            rule_stream = grounded
        else:
            # Consume the indexed grounder's incremental stream directly.
            grounded = None
            rule_stream = stream_relevant_ground(
                program, limits, store=store, recorder=recorder
            )

        collected: list[Rule] | None = [] if grounded is None else None
        facts: set[Atom] = set()
        rules: list[Rule] = []
        # Already-ground programs bypass the grounder's own budget ticks,
        # so the collection loop checkpoints the ambient meter itself.
        meter = current_meter()
        for rule in rule_stream:
            meter.tick("ground", stride=256)
            if collected is not None:
                collected.append(rule)
            if rule.is_fact:
                facts.add(rule.head)
            else:
                rules.append(rule)
        if grounded is None:
            grounded = Program(collected)

        base: set[Atom] = set(facts)
        base.update(extra_atoms)
        if full_base:
            # Widen with the Herbrand base of the *original* program so that the
            # reported models mention every instantiable IDB atom.
            base.update(herbrand_base(program, max_depth=(limits.max_depth if limits else 0)))

        # The rules, their atoms and indexes: the facts-and-base context
        # extended by the non-fact rules, exactly as a growing grounding is.
        context = extend_context(
            GroundContext(
                program=grounded,
                rules=(),
                facts=frozenset(facts),
                base=frozenset(base),
                rules_by_head={},
            ),
            rules,
            program=grounded,
        )
    if recorder.enabled:
        ground_span.annotate(
            rules=len(context.rules), facts=len(context.facts), atoms=len(context.base)
        )
        recorder.count("ground.rules", len(context.rules))
        recorder.count("ground.facts", len(context.facts))
        recorder.count("ground.atoms", len(context.base))
    return context


def extend_context(
    context: GroundContext, rules: Iterable[Rule], program: Program | None = None
) -> GroundContext:
    """*context* with the ground non-fact *rules* appended (fact rules are
    skipped: callers that grow a grounding keep their facts apart).

    This is where every context's rules are split into
    :class:`GroundRule` pieces and indexed by head — :func:`build_context`
    extends an empty one.  Rule ids already issued keep their meaning, so
    state indexed by them stays valid, and the base grows by the atoms the
    new rules mention.  *context* itself is left as it was — contexts are
    shared with published snapshots — and only the index entries of atoms
    the new rules touch are rebuilt.  The result reports *program*, by
    default *context*'s program plus the new rules.  Returns *context*
    when nothing was added.
    """
    start = len(context.rules)
    added: list[GroundRule] = []
    occurring: set[Atom] = set()
    new_by_head: dict[Atom, list[int]] = {}
    meter = current_meter()
    for rule in rules:
        meter.tick("ground", stride=512)
        if rule.is_fact:
            continue
        positive = tuple(lit.atom for lit in rule.body if lit.positive)
        negative = tuple(lit.atom for lit in rule.body if lit.negative)
        index = start + len(added)
        added.append(GroundRule(rule.head, positive, negative, rule))
        new_by_head.setdefault(rule.head, []).append(index)
        occurring.add(rule.head)
        occurring.update(positive)
        occurring.update(negative)
    if not added:
        return context
    by_head = dict(context.rules_by_head)
    for atom, ids in new_by_head.items():
        by_head[atom] = by_head.get(atom, ()) + tuple(ids)
    if program is None:
        program = Program((*context.program, *(rule.source for rule in added)))
    return GroundContext(
        program=program,
        rules=context.rules + tuple(added),
        facts=context.facts,
        base=context.base | occurring,
        rules_by_head=by_head,
    )
