"""Lower a ground program to the flat int IR.

The compiled form replaces every object-level structure the well-founded
hot loop touches with a contiguous ``array('i')``:

* atoms get dense ids, and ``atoms`` maps an id back to its atom.  The
  model does not depend on which id an atom gets, and no order needs a
  sort of the base;
* rule bodies become CSR segments (``pos_off``/``pos_atoms`` and
  ``neg_off``/``neg_atoms``, one *deduplicated* id list per rule, so the
  Dowling–Gallier counters seeded from segment lengths are exact);
* the head index becomes a CSR map ``head_off``/``head_rules`` from atom id
  to the rules deriving it;
* the SCC condensation of the atom dependency graph is computed directly
  over the int adjacency (iterative Tarjan, callees-first emission) and
  stored as ``comp_of`` plus the CSR partition ``comp_off``/``comp_atoms``.

Lowering has three front ends and one back end.  Each front end turns
its input into a :class:`~repro.datalog.grounding.GroundIR` (ids, heads,
body segments, fact ids); :func:`condense` — the back end — builds the
head index and the condensation from it:

* :meth:`IncrementalGrounder.ground_ir
  <repro.datalog.grounding.IncrementalGrounder.ground_ir>` grounds a
  non-ground program straight into ids (facts first, then atoms as its
  bindings meet them), with no rule instance built;
* :func:`lower_program` reads an already-ground program's rules in
  program order (each rule's head, then its body in body order);
* :func:`compile_context` lowers a built
  :class:`~repro.core.context.GroundContext` — each rule's head, then its
  positive and negative body, then the facts in program order, then any
  remaining base atoms (extra or full-base ones) sorted by ``repr``.  It
  is the reference the other two are tested against.

A well-founded ``solve`` runs the first two and :func:`condense`
(:func:`repro.engine.solver.solve_configured`), with no context built.
:func:`get_kernel` caches a context's compilation on the (frozen)
context — the same idiom as :func:`repro.evaluation.indexes.get_index` —
so a caller that evaluates one grounding many times (repeated runs over
one context) pays the compile exactly once.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Tuple

from ..datalog.grounding import GroundIR
from ..obs.recorder import NULL_RECORDER, Recorder
from ..resilience.budget import current_meter

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..core.context import GroundContext
    from ..datalog.atoms import Atom
    from ..datalog.rules import Program

__all__ = ["CompiledProgram", "condense", "compile_context", "get_kernel", "lower_program"]

_KERNEL_ATTRIBUTE = "_compiled_kernel"


@dataclass(frozen=True)
class CompiledProgram:
    """One ground program as dense integers and flat arrays.

    All offsets follow the CSR convention: segment ``i`` of a
    ``(xxx_off, xxx)`` pair is ``xxx[xxx_off[i]:xxx_off[i + 1]]``, and the
    offset array has one trailing entry, so lengths never need storing.
    Components are numbered callees-first: every body atom of a rule lives
    in the same or a lower-numbered component than its head.  ``atoms[i]``
    is the atom with id ``i``.
    """

    atoms: List["Atom"]
    n_atoms: int
    n_rules: int
    # Rules
    heads: array
    pos_off: array
    pos_atoms: array
    neg_off: array
    neg_atoms: array
    # Atom -> rules deriving it
    head_off: array
    head_rules: array
    # EDB facts of the compiled context
    fact_ids: array
    # Condensation
    n_components: int
    comp_of: array
    comp_off: array
    comp_atoms: array
    # Atoms that occur in the body of one of their own rules (singleton
    # components with a genuine self-loop take the general solve path).
    self_dep: bytes = field(repr=False, default=b"")

    def hot(self) -> Tuple[List[int], ...]:
        """The IR's index arrays as plain lists, built once and cached.

        CPython boxes a fresh ``int`` on every ``array('i')`` access; the
        evaluator's inner loops index these structures millions of times,
        so each compiled program lazily materialises a list form (whose
        elements are shared, already-boxed ints) next to the canonical
        packed arrays.  Returns ``(pos_off, pos_atoms, neg_off, neg_atoms,
        head_off, head_rules, comp_off, comp_atoms, comp_of)``.
        """
        cached = getattr(self, "_hot", None)
        if cached is None:
            cached = tuple(
                list(buf)
                for buf in (
                    self.pos_off,
                    self.pos_atoms,
                    self.neg_off,
                    self.neg_atoms,
                    self.head_off,
                    self.head_rules,
                    self.comp_off,
                    self.comp_atoms,
                    self.comp_of,
                )
            )
            object.__setattr__(self, "_hot", cached)
        return cached

    def nbytes(self) -> int:
        """Bytes held by the flat arrays (the IR proper, excluding the
        id → atom list, whose Atom objects are shared with the grounding, and
        the lazily built :meth:`hot` decode cache)."""
        total = len(self.self_dep)
        for buf in (
            self.heads,
            self.pos_off,
            self.pos_atoms,
            self.neg_off,
            self.neg_atoms,
            self.head_off,
            self.head_rules,
            self.fact_ids,
            self.comp_of,
            self.comp_off,
            self.comp_atoms,
        ):
            total += buf.buffer_info()[1] * buf.itemsize
        return total

    def statistics(self) -> Dict[str, int]:
        return {
            "atoms": self.n_atoms,
            "rules": self.n_rules,
            "components": self.n_components,
            "body_entries": len(self.pos_atoms) + len(self.neg_atoms),
            "bytes": self.nbytes(),
        }


def condense(ir: GroundIR, recorder: Recorder = NULL_RECORDER) -> CompiledProgram:
    """The back end every front end shares: index *ir*'s rules by head and
    condense its atom dependency graph into a :class:`CompiledProgram`.

    A tracing *recorder* gets the ``kernel.atoms`` / ``kernel.rules`` /
    ``kernel.bytes`` counters.
    """
    meter = current_meter()
    n_atoms = len(ir.atoms)
    heads = ir.heads
    n_rules = len(heads)

    # Head index as CSR via a counting pass.
    head_counts = [0] * (n_atoms + 1)
    for head_id in heads:
        head_counts[head_id + 1] += 1
    for i in range(1, n_atoms + 1):
        head_counts[i] += head_counts[i - 1]
    head_rules_list = [0] * n_rules
    cursor = head_counts[:-1]
    for rule_id, head_id in enumerate(heads):
        head_rules_list[cursor[head_id]] = rule_id
        cursor[head_id] += 1
    meter.check("condense")

    comp_of, comp_off_list, comp_atoms_list, self_dep = _components(
        n_atoms, head_counts, head_rules_list, ir.pos_off, ir.pos_atoms, ir.neg_off, ir.neg_atoms
    )
    meter.check("condense")

    compiled = CompiledProgram(
        atoms=ir.atoms,
        n_atoms=n_atoms,
        n_rules=n_rules,
        heads=array("i", heads),
        pos_off=array("i", ir.pos_off),
        pos_atoms=array("i", ir.pos_atoms),
        neg_off=array("i", ir.neg_off),
        neg_atoms=array("i", ir.neg_atoms),
        head_off=array("i", head_counts),
        head_rules=array("i", head_rules_list),
        fact_ids=array("i", ir.fact_ids),
        n_components=len(comp_off_list) - 1,
        comp_of=array("i", comp_of),
        comp_off=array("i", comp_off_list),
        comp_atoms=array("i", comp_atoms_list),
        self_dep=bytes(self_dep),
    )
    if recorder.enabled:
        recorder.count("kernel.atoms", compiled.n_atoms)
        recorder.count("kernel.rules", compiled.n_rules)
        recorder.count("kernel.bytes", compiled.nbytes())
    return compiled


def compile_context(
    context: "GroundContext", recorder: Recorder = NULL_RECORDER
) -> CompiledProgram:
    """Compile *context* to a :class:`CompiledProgram` (uncached)."""
    # Atom -> id in first-seen order; ``intern(atom, len(ids))`` hands out
    # the next dense id on first sight, and the dict's insertion order is
    # the id -> atom list.  Every atom of the rules and facts is in the base.
    ids: Dict["Atom", int] = {}
    intern = ids.setdefault
    heads: List[int] = []
    pos_off: List[int] = [0]
    pos_atoms: List[int] = []
    neg_off: List[int] = [0]
    neg_atoms: List[int] = []
    for rule in context.rules:
        heads.append(intern(rule.head, len(ids)))
        positive = rule.positive_body
        if positive:
            pos_atoms.extend(sorted({intern(atom, len(ids)) for atom in positive}))
        pos_off.append(len(pos_atoms))
        negative = rule.negative_body
        if negative:
            neg_atoms.extend(sorted({intern(atom, len(ids)) for atom in negative}))
        neg_off.append(len(neg_atoms))
    facts = context.facts
    for rule in context.program:
        if not rule.body and rule.head in facts:
            intern(rule.head, len(ids))
    base = context.base
    if len(ids) < len(base):
        for atom in sorted((atom for atom in base if atom not in ids), key=repr):
            intern(atom, len(ids))
    current_meter().check("compile")
    ir = GroundIR(
        list(ids), heads, pos_off, pos_atoms, neg_off, neg_atoms,
        sorted(ids[atom] for atom in facts),
    )
    return condense(ir, recorder)


def lower_program(program: "Program") -> GroundIR:
    """The front end of an already-ground *program*: its rules read in
    program order, each atom getting its id the first time a rule's head
    or body meets it, with no context built.

    The rules are the program's non-fact rules, duplicates included, and
    the atoms those rules and the facts mention — the rules and base of
    ``build_context(program)``.  The budget is ticked once per rule, as
    :func:`~repro.core.context.build_context` does.
    """
    meter = current_meter()
    ids: Dict["Atom", int] = {}
    intern = ids.setdefault
    facts: List[int] = []
    heads: List[int] = []
    pos_off: List[int] = [0]
    pos_atoms: List[int] = []
    neg_off: List[int] = [0]
    neg_atoms: List[int] = []
    for rule in program:
        meter.tick("ground", stride=256)
        head = intern(rule.head, len(ids))
        body = rule.body
        if not body:
            facts.append(head)
            continue
        heads.append(head)
        positive: List[int] = []
        negative: List[int] = []
        for literal in body:
            (positive if literal.positive else negative).append(intern(literal.atom, len(ids)))
        if len(positive) > 1:
            positive = sorted(set(positive))
        pos_atoms.extend(positive)
        pos_off.append(len(pos_atoms))
        if len(negative) > 1:
            negative = sorted(set(negative))
        neg_atoms.extend(negative)
        neg_off.append(len(neg_atoms))
    return GroundIR(
        list(ids), heads, pos_off, pos_atoms, neg_off, neg_atoms, sorted(set(facts))
    )


def get_kernel(
    context: "GroundContext", recorder: Recorder = NULL_RECORDER
) -> CompiledProgram:
    """The compiled kernel of *context*, built once and cached on it.

    Contexts are frozen and shared across operators, so the cache turns
    repeated evaluation of one grounding into compile-once /
    evaluate-many.
    """
    cached = getattr(context, _KERNEL_ATTRIBUTE, None)
    if cached is None:
        cached = compile_context(context, recorder=recorder)
        object.__setattr__(context, _KERNEL_ATTRIBUTE, cached)
    return cached


# --------------------------------------------------------------------- #
# Int-level condensation
# --------------------------------------------------------------------- #
def _components(
    n_atoms: int,
    head_off: List[int],
    head_rules: List[int],
    pos_off: List[int],
    pos_atoms: List[int],
    neg_off: List[int],
    neg_atoms: List[int],
) -> Tuple[List[int], List[int], List[int], bytearray]:
    """SCC-condense the atom dependency graph, callees first.

    Builds the head → body adjacency (both polarities, deduplicated) as a
    CSR over ints, reading each atom's rules off the head index, and runs
    an iterative Tarjan.  Tarjan emits a component only after every
    component reachable from it, so the emission order is already the
    callees-first topological order the evaluator consumes.  Returns
    ``(comp_of, comp_off, comp_atoms, self_dep)``; ``self_dep`` marks the
    atoms among their own successors.
    """
    # Dependency adjacency: one sorted, deduplicated successor list per
    # atom (head depends on each body atom of each of its rules).
    adj_off = [0] * (n_atoms + 1)
    adj: List[int] = []
    self_dep = bytearray(n_atoms)
    for atom_id in range(n_atoms):
        first, last = head_off[atom_id], head_off[atom_id + 1]
        if first != last:
            successors = set()
            for slot in range(first, last):
                rule = head_rules[slot]
                successors.update(pos_atoms[pos_off[rule] : pos_off[rule + 1]])
                successors.update(neg_atoms[neg_off[rule] : neg_off[rule + 1]])
            adj.extend(sorted(successors))
            if atom_id in successors:
                self_dep[atom_id] = 1
        adj_off[atom_id + 1] = len(adj)

    comp_of = [-1] * n_atoms
    comp_atoms: List[int] = []
    comp_off = [0]
    index_of = [-1] * n_atoms
    lowlink = [0] * n_atoms
    on_stack = bytearray(n_atoms)
    scc_stack: List[int] = []
    counter = 0

    for root in range(n_atoms):
        if index_of[root] != -1:
            continue
        index_of[root] = lowlink[root] = counter
        counter += 1
        if adj_off[root] == adj_off[root + 1]:
            # An atom with no successors (every fact) is a component of its
            # own, emitted at once, as Tarjan would after visiting it.
            comp_of[root] = len(comp_off) - 1
            comp_atoms.append(root)
            comp_off.append(len(comp_atoms))
            continue
        # (node, next successor position) — an explicit DFS frame stack.
        work: List[List[int]] = [[root, adj_off[root]]]
        scc_stack.append(root)
        on_stack[root] = 1
        while work:
            frame = work[-1]
            node = frame[0]
            position = frame[1]
            if position < adj_off[node + 1]:
                frame[1] = position + 1
                successor = adj[position]
                if index_of[successor] == -1:
                    index_of[successor] = lowlink[successor] = counter
                    counter += 1
                    if adj_off[successor] == adj_off[successor + 1]:
                        comp_of[successor] = len(comp_off) - 1
                        comp_atoms.append(successor)
                        comp_off.append(len(comp_atoms))
                        continue
                    scc_stack.append(successor)
                    on_stack[successor] = 1
                    work.append([successor, adj_off[successor]])
                elif on_stack[successor]:
                    if index_of[successor] < lowlink[node]:
                        lowlink[node] = index_of[successor]
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                if lowlink[node] < lowlink[parent]:
                    lowlink[parent] = lowlink[node]
            if lowlink[node] == index_of[node]:
                comp_index = len(comp_off) - 1
                while True:
                    member = scc_stack.pop()
                    on_stack[member] = 0
                    comp_of[member] = comp_index
                    comp_atoms.append(member)
                    if member == node:
                        break
                comp_off.append(len(comp_atoms))
    return comp_of, comp_off, comp_atoms, self_dep
