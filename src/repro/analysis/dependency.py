"""Dependency graphs with polarity labels, at two granularities.

Definition 8.3 of the paper: the dependency graph of a program has the
relation symbols as nodes, with an arc from ``p`` to ``q`` whenever some
rule for ``p`` uses ``q`` in its body.  The arc is labelled *positive*,
*negative*, or *mixed* according to the polarities with which ``q`` occurs
across those rules.

Two instantiations of the same structure live here:

* :class:`DependencyGraph` — the *predicate-level* graph of Definition 8.3,
  driving stratification, strictness and the Section 8.2 analyses;
* :class:`AtomDependencyGraph` — the *ground-atom-level* graph of a ground
  program (or :class:`~repro.core.context.GroundContext`), driving local
  stratification and the component-wise maintenance of
  :mod:`repro.session.incremental`.

Both share one iterative Tarjan SCC implementation (:func:`tarjan_scc`),
which emits components callees-first — i.e. already in the bottom-up
condensation order the component-wise evaluator consumes.
"""

from __future__ import annotations

import enum
from collections import defaultdict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Hashable, Iterable, Iterator, Mapping, Sequence, TypeVar, Union

from ..datalog.atoms import Atom
from ..datalog.rules import Program, Rule
from ..resilience.budget import current_meter

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..core.context import GroundContext

__all__ = [
    "ArcPolarity",
    "DependencyGraph",
    "AtomDependencyGraph",
    "build_dependency_graph",
    "build_atom_dependency_graph",
    "tarjan_scc",
]

Node = TypeVar("Node", bound=Hashable)


def tarjan_scc(
    nodes: Iterable[Node],
    adjacency: Mapping[Node, Sequence[Node]],
) -> list[set[Node]]:
    """Strongly connected components of a directed graph, callees first.

    *nodes* fixes the root visiting order (and therefore the tie-breaking
    between independent components); *adjacency* maps each node to its
    successors.  The iterative formulation avoids recursion limits on deep
    graphs — ground atom graphs routinely reach tens of thousands of nodes.
    Components are emitted in reverse topological order: every successor of
    a component member that lies outside the component belongs to an
    earlier component.
    """
    index_counter = 0
    stack: list[Node] = []
    lowlink: dict[Node, int] = {}
    index: dict[Node, int] = {}
    on_stack: set[Node] = set()
    components: list[set[Node]] = []

    # Condensation runs between the grounding and evaluation checkpoints
    # of a budgeted solve; ticking the ambient meter keeps the longest
    # checkpoint-free stretch bounded on graphs with many nodes.
    meter = current_meter()
    for root in nodes:
        meter.tick("condense", stride=512)
        if root in index:
            continue
        work: list[tuple[Node, int]] = [(root, 0)]
        while work:
            meter.tick("condense", stride=1024)
            node, child_index = work.pop()
            if child_index == 0:
                index[node] = index_counter
                lowlink[node] = index_counter
                index_counter += 1
                stack.append(node)
                on_stack.add(node)
            recurse = False
            children = adjacency.get(node, ())
            while child_index < len(children):
                child = children[child_index]
                child_index += 1
                if child not in index:
                    work.append((node, child_index))
                    work.append((child, 0))
                    recurse = True
                    break
                if child in on_stack:
                    lowlink[node] = min(lowlink[node], index[child])
            if recurse:
                continue
            if lowlink[node] == index[node]:
                component: set[Node] = set()
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.add(member)
                    if member == node:
                        break
                components.append(component)
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
    return components


class ArcPolarity(enum.Enum):
    """Label of a dependency arc (Definition 8.3)."""

    POSITIVE = "positive"
    NEGATIVE = "negative"
    MIXED = "mixed"

    def merge(self, other: "ArcPolarity") -> "ArcPolarity":
        """Combine evidence from two occurrences of the same dependency."""
        if self is other:
            return self
        return ArcPolarity.MIXED


@dataclass
class DependencyGraph:
    """Directed graph over predicate names with polarity-labelled arcs."""

    nodes: set[str] = field(default_factory=set)
    _arcs: dict[tuple[str, str], ArcPolarity] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def add_node(self, name: str) -> None:
        self.nodes.add(name)

    def add_arc(self, source: str, target: str, polarity: ArcPolarity) -> None:
        """Add (or merge) an arc ``source -> target`` with the given polarity."""
        self.nodes.add(source)
        self.nodes.add(target)
        key = (source, target)
        existing = self._arcs.get(key)
        self._arcs[key] = polarity if existing is None else existing.merge(polarity)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def arcs(self) -> Iterator[tuple[str, str, ArcPolarity]]:
        for (source, target), polarity in self._arcs.items():
            yield source, target, polarity

    def polarity(self, source: str, target: str) -> ArcPolarity | None:
        return self._arcs.get((source, target))

    def successors(self, node: str) -> set[str]:
        return {target for (source, target) in self._arcs if source == node}

    def predecessors(self, node: str) -> set[str]:
        return {source for (source, target) in self._arcs if target == node}

    def has_negative_arc(self) -> bool:
        return any(
            polarity in (ArcPolarity.NEGATIVE, ArcPolarity.MIXED)
            for polarity in self._arcs.values()
        )

    # ------------------------------------------------------------------ #
    # Strongly connected components (shared iterative Tarjan)
    # ------------------------------------------------------------------ #
    def strongly_connected_components(self) -> list[set[str]]:
        """SCCs in reverse topological order (callees before callers)."""
        adjacency: dict[str, list[str]] = defaultdict(list)
        for source, target, _ in self.arcs():
            adjacency[source].append(target)
        return tarjan_scc(sorted(self.nodes), adjacency)

    def condensation_order(self) -> list[set[str]]:
        """SCCs ordered so that dependencies come before dependents."""
        return self.strongly_connected_components()

    # ------------------------------------------------------------------ #
    # Cycle analysis
    # ------------------------------------------------------------------ #
    def negative_cycle_predicates(self) -> set[str]:
        """Predicates lying on a cycle through a negative or mixed arc.

        A program is stratified exactly when this set is empty.
        """
        offenders: set[str] = set()
        for component in self.strongly_connected_components():
            if len(component) == 1:
                only = next(iter(component))
                polarity = self.polarity(only, only)
                if polarity in (ArcPolarity.NEGATIVE, ArcPolarity.MIXED):
                    offenders.add(only)
                continue
            for source, target, polarity in self.arcs():
                if (
                    source in component
                    and target in component
                    and polarity in (ArcPolarity.NEGATIVE, ArcPolarity.MIXED)
                ):
                    offenders.update(component)
                    break
        return offenders

    def reachable_from(self, node: str) -> set[str]:
        """All predicates reachable by directed paths from *node* (including
        itself via the null path, as in Definition 8.3)."""
        seen = {node}
        frontier = [node]
        while frontier:
            current = frontier.pop()
            for successor in self.successors(current):
                if successor not in seen:
                    seen.add(successor)
                    frontier.append(successor)
        return seen


def build_dependency_graph(program: Program, idb_only: bool = False) -> DependencyGraph:
    """Build the dependency graph of *program*.

    With ``idb_only`` set, arcs into EDB predicates are skipped; this is the
    graph used for the "strict in the IDB" notion of Section 8.2.
    """
    graph = DependencyGraph()
    edb = program.edb_predicates() if idb_only else set()
    for rule in program:
        head = rule.head.predicate
        graph.add_node(head)
        occurrences: dict[str, ArcPolarity] = {}
        for literal in rule.body:
            target = literal.predicate
            if idb_only and target in edb:
                continue
            polarity = ArcPolarity.POSITIVE if literal.positive else ArcPolarity.NEGATIVE
            existing = occurrences.get(target)
            occurrences[target] = polarity if existing is None else existing.merge(polarity)
        for target, polarity in occurrences.items():
            graph.add_arc(head, target, polarity)
    # Ensure isolated body-only predicates appear as nodes too.
    for rule in program:
        for literal in rule.body:
            if not idb_only or literal.predicate not in edb:
                graph.add_node(literal.predicate)
    return graph


# --------------------------------------------------------------------- #
# Ground-atom-level dependency graphs
# --------------------------------------------------------------------- #
@dataclass
class AtomDependencyGraph:
    """The Definition 8.3 graph at ground-atom granularity.

    Nodes are ground atoms; there is an arc from a rule's head atom to each
    of its body atoms, labelled with the polarity the body atom occurs with
    (merged to *mixed* across occurrences).  Internally an arc is stored as
    membership of the target in the per-source positive and/or negative
    target sets — the representation local stratification actually
    probes — and
    ``adjacency`` keeps the deduplicated successor lists the SCC
    computation walks.
    """

    nodes: set[Atom] = field(default_factory=set)
    adjacency: dict[Atom, list[Atom]] = field(default_factory=dict)
    _positive: dict[Atom, set[Atom]] = field(default_factory=dict)
    _negative: dict[Atom, set[Atom]] = field(default_factory=dict)

    # -- construction --------------------------------------------------- #
    def add_node(self, atom: Atom) -> None:
        self.nodes.add(atom)

    def add_arc(self, source: Atom, target: Atom, polarity: ArcPolarity) -> None:
        """Add (or polarity-merge) an arc ``source -> target``."""
        self.nodes.add(source)
        self.nodes.add(target)
        if self.polarity(source, target) is None:
            self.adjacency.setdefault(source, []).append(target)
        if polarity in (ArcPolarity.POSITIVE, ArcPolarity.MIXED):
            self._positive.setdefault(source, set()).add(target)
        if polarity in (ArcPolarity.NEGATIVE, ArcPolarity.MIXED):
            self._negative.setdefault(source, set()).add(target)

    # -- queries --------------------------------------------------------- #
    def arcs(self) -> Iterator[tuple[Atom, Atom, ArcPolarity]]:
        for source, targets in self.adjacency.items():
            for target in targets:
                yield source, target, self.polarity(source, target)

    def polarity(self, source: Atom, target: Atom) -> ArcPolarity | None:
        positive = target in self._positive.get(source, ())
        negative = target in self._negative.get(source, ())
        if positive and negative:
            return ArcPolarity.MIXED
        if positive:
            return ArcPolarity.POSITIVE
        if negative:
            return ArcPolarity.NEGATIVE
        return None

    def successors(self, atom: Atom) -> Sequence[Atom]:
        return self.adjacency.get(atom, ())

    def has_negative_arc(self) -> bool:
        return any(targets for targets in self._negative.values())

    # -- condensation ---------------------------------------------------- #
    def strongly_connected_components(self) -> list[set[Atom]]:
        """SCCs callees-first.  Roots are visited in textual atom order, so
        the ordering of independent components is stable across runs (set
        iteration order would vary with the hash seed)."""
        return tarjan_scc(sorted(self.nodes, key=str), self.adjacency)

    def condensation_order(self) -> list[set[Atom]]:
        """SCCs ordered so that dependencies come before dependents — the
        evaluation order of the component-wise well-founded evaluator."""
        return self.strongly_connected_components()

    def negative_arc_within(self, component: set[Atom]) -> bool:
        """Does some negative (or mixed) arc stay inside *component*?

        Components with such an arc have negation through recursion and
        need the full alternating fixpoint; without one they are locally
        stratified and fall to cheaper evaluation methods.
        """
        for source in component:
            targets = self._negative.get(source)
            if targets and not targets.isdisjoint(component):
                return True
        return False

    def negative_cycle_atoms(self) -> set[Atom]:
        """Atoms lying on a cycle through a negative or mixed arc.

        A ground program is locally stratified exactly when this is empty.
        """
        offenders: set[Atom] = set()
        for component in self.strongly_connected_components():
            if self.negative_arc_within(component):
                offenders.update(component)
        return offenders


def build_atom_dependency_graph(
    source: Union[Program, "GroundContext"],
) -> AtomDependencyGraph:
    """Build the ground-atom dependency graph of a ground program or of a
    prepared :class:`~repro.core.context.GroundContext`.

    From a context, every atom of the base becomes a node (facts and
    body-only atoms included), so isolated atoms still receive their own
    singleton components; from a raw program, the occurring atoms do.  The
    context path is the hot one (the component-wise evaluator calls it per
    run), so it builds the per-source target sets in bulk instead of going
    through :meth:`AtomDependencyGraph.add_arc`.
    """
    graph = AtomDependencyGraph()
    if isinstance(source, Program):
        source.require_ground()
        for rule in source:
            graph.add_node(rule.head)
            for literal in rule.body:
                graph.add_arc(
                    rule.head,
                    literal.atom,
                    ArcPolarity.POSITIVE if literal.positive else ArcPolarity.NEGATIVE,
                )
        return graph

    positive: dict[Atom, set[Atom]] = {}
    negative: dict[Atom, set[Atom]] = {}
    meter = current_meter()
    for rule in source.rules:
        meter.tick("condense", stride=512)
        head = rule.head
        if rule.positive_body:
            targets = positive.get(head)
            if targets is None:
                targets = positive[head] = set()
            targets.update(rule.positive_body)
        if rule.negative_body:
            targets = negative.get(head)
            if targets is None:
                targets = negative[head] = set()
            targets.update(rule.negative_body)

    adjacency: dict[Atom, list[Atom]] = {}
    for head in positive.keys() | negative.keys():
        merged = positive.get(head, set()) | negative.get(head, set())
        adjacency[head] = list(merged)

    graph.nodes = set(source.base)
    graph.adjacency = adjacency
    graph._positive = positive
    graph._negative = negative
    return graph
