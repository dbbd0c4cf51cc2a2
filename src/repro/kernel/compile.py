"""Lower a :class:`~repro.core.context.GroundContext` to the flat int IR.

The compiled form replaces every object-level structure the well-founded
hot loop touches with a contiguous ``array('i')``:

* atoms get dense ids in the order compilation first meets them — each
  rule's head, then its positive and negative body, then the facts in
  program order, then any remaining base atoms (extra or full-base ones)
  sorted by ``repr`` — and ``atoms`` maps an id back to its atom.  The
  model does not depend on which id an atom gets, and the order needs no
  sort of the base;
* rule bodies become CSR segments (``pos_off``/``pos_atoms`` and
  ``neg_off``/``neg_atoms``, one *deduplicated* id list per rule, so the
  Dowling–Gallier counters seeded from segment lengths are exact);
* the head index becomes a CSR map ``head_off``/``head_rules`` from atom id
  to the rules deriving it;
* the SCC condensation of the atom dependency graph is computed directly
  over the int adjacency (iterative Tarjan, callees-first emission) and
  stored as ``comp_of`` plus the CSR partition ``comp_off``/``comp_atoms``.

Compilation is cached on the (frozen) context via :func:`get_kernel` — the
same idiom as :func:`repro.evaluation.indexes.get_index` — so a caller
that evaluates one grounding many times (repeated runs over one context)
pays the compile exactly once.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Tuple

from ..obs.recorder import NULL_RECORDER, Recorder
from ..resilience.budget import current_meter

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..core.context import GroundContext
    from ..datalog.atoms import Atom

__all__ = ["CompiledProgram", "compile_context", "get_kernel"]

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
        id → atom list, whose Atom objects are shared with the context, and
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


def compile_context(
    context: "GroundContext", recorder: Recorder = NULL_RECORDER
) -> CompiledProgram:
    """Compile *context* to a :class:`CompiledProgram` (uncached)."""
    meter = current_meter()
    # Atom -> id in first-seen order; ``intern(atom, len(ids))`` hands out
    # the next dense id on first sight, and the dict's insertion order is
    # the id -> atom list.  Every atom of the rules and facts is in the base.
    ids: Dict["Atom", int] = {}
    intern = ids.setdefault
    base = context.base
    n_atoms = len(base)

    rules = context.rules
    n_rules = len(rules)
    heads_list: List[int] = []
    pos_off_list: List[int] = [0]
    pos_list: List[int] = []
    neg_off_list: List[int] = [0]
    neg_list: List[int] = []
    self_dep = bytearray(n_atoms)
    for rule in rules:
        head_id = intern(rule.head, len(ids))
        heads_list.append(head_id)
        positive = rule.positive_body
        if positive:
            distinct = {intern(atom, len(ids)) for atom in positive}
            if head_id in distinct:
                self_dep[head_id] = 1
            pos_list.extend(sorted(distinct))
        pos_off_list.append(len(pos_list))
        negative = rule.negative_body
        if negative:
            distinct = {intern(atom, len(ids)) for atom in negative}
            if head_id in distinct:
                self_dep[head_id] = 1
            neg_list.extend(sorted(distinct))
        neg_off_list.append(len(neg_list))
    facts = context.facts
    for rule in context.program:
        if not rule.body and rule.head in facts:
            intern(rule.head, len(ids))
    if len(ids) < n_atoms:
        for atom in sorted((atom for atom in base if atom not in ids), key=repr):
            intern(atom, len(ids))
    meter.check("compile")

    # Head index as CSR via a counting pass.
    head_counts = [0] * (n_atoms + 1)
    for head_id in heads_list:
        head_counts[head_id + 1] += 1
    for i in range(1, n_atoms + 1):
        head_counts[i] += head_counts[i - 1]
    head_off = array("i", head_counts)
    head_rules_list = [0] * n_rules
    cursor = list(head_off[:-1])
    for rule_id, head_id in enumerate(heads_list):
        head_rules_list[cursor[head_id]] = rule_id
        cursor[head_id] += 1
    meter.check("compile")

    comp_of, comp_off_list, comp_atoms_list = _condense(
        n_atoms,
        heads_list,
        pos_off_list,
        pos_list,
        neg_off_list,
        neg_list,
    )
    meter.check("compile")

    compiled = CompiledProgram(
        atoms=list(ids),
        n_atoms=n_atoms,
        n_rules=n_rules,
        heads=array("i", heads_list),
        pos_off=array("i", pos_off_list),
        pos_atoms=array("i", pos_list),
        neg_off=array("i", neg_off_list),
        neg_atoms=array("i", neg_list),
        head_off=head_off,
        head_rules=array("i", head_rules_list),
        fact_ids=array("i", sorted(ids[atom] for atom in facts)),
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
def _condense(
    n_atoms: int,
    heads: List[int],
    pos_off: List[int],
    pos_atoms: List[int],
    neg_off: List[int],
    neg_atoms: List[int],
) -> Tuple[List[int], List[int], List[int]]:
    """SCC-condense the atom dependency graph, callees first.

    Builds the head → body adjacency (both polarities, deduplicated) as a
    CSR over ints and runs an iterative Tarjan.  Tarjan emits a component
    only after every component reachable from it, so the emission order is
    already the callees-first topological order the evaluator consumes.
    Returns ``(comp_of, comp_off, comp_atoms)``.
    """
    # Dependency adjacency: one sorted, deduplicated successor list per
    # atom (head depends on each body atom of each of its rules).
    succ_sets: List[set] = [None] * n_atoms  # type: ignore[list-item]
    for rule_id, head_id in enumerate(heads):
        bucket = succ_sets[head_id]
        if bucket is None:
            bucket = succ_sets[head_id] = set()
        bucket.update(pos_atoms[pos_off[rule_id] : pos_off[rule_id + 1]])
        bucket.update(neg_atoms[neg_off[rule_id] : neg_off[rule_id + 1]])
    adj_off = [0] * (n_atoms + 1)
    adj: List[int] = []
    for atom_id in range(n_atoms):
        bucket = succ_sets[atom_id]
        if bucket:
            adj.extend(sorted(bucket))
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
        # (node, next successor position) — an explicit DFS frame stack.
        work: List[List[int]] = [[root, adj_off[root]]]
        index_of[root] = lowlink[root] = counter
        counter += 1
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
    return comp_of, comp_off, comp_atoms
