"""Finite structures for evaluating first-order rule bodies.

Quantifiers in general rule bodies range over a *domain*.  The
:class:`FiniteStructure` couples a finite domain of constants with an EDB
held in a :class:`~repro.storage.FactStore`; it is the "given structure"
of the expressiveness discussion in Sections 2.5 and 8 (fixpoint logic on
finite structures).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from ..datalog.atoms import Atom
from ..datalog.terms import Constant
from ..storage import FactStore, MemoryStore

__all__ = ["FiniteStructure"]


@dataclass
class FiniteStructure:
    """A finite domain plus extensional relations.

    The domain elements are stored as constants; plain Python values are
    coerced on construction.  ``edb`` is the store holding the given
    relations (e.g. the edge relation ``e`` of the paper's graph examples),
    a fresh :class:`~repro.storage.MemoryStore` by default.
    """

    domain: tuple[Constant, ...]
    edb: FactStore = field(default_factory=MemoryStore)

    def __init__(self, domain: Iterable[object], edb: FactStore | None = None):
        coerced = tuple(
            element if isinstance(element, Constant) else Constant(element)
            for element in domain
        )
        self.domain = coerced
        self.edb = edb if edb is not None else MemoryStore()

    # ------------------------------------------------------------------ #
    @classmethod
    def from_relations(
        cls,
        domain: Iterable[object],
        relations: dict[str, Iterable[Sequence[object]]],
    ) -> "FiniteStructure":
        """Build a structure from a domain and ``{relation: rows}``."""
        store = MemoryStore()
        store.load(relations)
        return cls(domain, store)

    @classmethod
    def from_edges(cls, edges: Iterable[tuple[object, object]], relation: str = "e") -> "FiniteStructure":
        """Build a graph structure: domain = endpoints, one binary relation."""
        edge_list = list(edges)
        nodes: list[object] = []
        seen: set[object] = set()
        for source, target in edge_list:
            for node in (source, target):
                if node not in seen:
                    seen.add(node)
                    nodes.append(node)
        return cls.from_relations(nodes, {relation: edge_list})

    # ------------------------------------------------------------------ #
    def size(self) -> int:
        return len(self.domain)

    def edb_atoms(self) -> set[Atom]:
        return set(self.edb.facts())

    def edb_holds(self, atom: Atom) -> bool:
        """Is the ground atom a fact of the structure's EDB?"""
        return self.edb.contains(atom.predicate, *atom.args)

    def edb_predicates(self) -> set[str]:
        return self.edb.relation_names()

    def domain_values(self) -> tuple[object, ...]:
        return tuple(constant.value for constant in self.domain)
