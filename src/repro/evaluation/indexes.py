"""Rule indexes for semi-naive, delta-driven evaluation.

The fixpoint operators of the paper are all driven by the same question:
*which ground rules are affected when an atom's status changes?*  The naive
operators answer it by re-scanning every rule; this module answers it in
O(1) per (atom, rule) pair with a :class:`RuleIndex` built once per
:class:`~repro.core.context.GroundContext`:

* ``watchers``          — for each ground atom, the rules with that atom in
  their *positive* body (one entry per distinct body atom, so counter
  decrements are exact);
* ``negative_watchers`` — the same for *negative* body occurrences, used to
  decide in O(|Ĩ|·adjacency) which rules a negative context activates;
* ``positive_counts`` / ``negative_counts`` — per-rule counts of distinct
  positive / negative body atoms, the initial values of the Dowling–Gallier
  counters: a rule fires the moment its counter reaches zero, i.e. in O(1)
  when its *last* unsatisfied body literal is resolved.

Indexes are immutable and cached on the context (contexts are frozen and
reused across operators), so every semantics computed on one grounding
shares a single index build.  This module owns both watch lists: the
context itself indexes its rules by head only, and the compiled kernel
keeps its own int IR, so the lists are built only when an object-level
evaluator asks for them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

from ..datalog.atoms import Atom

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..core.context import GroundContext

__all__ = ["RuleIndex", "build_index", "get_index"]

_INDEX_ATTRIBUTE = "_seminaive_rule_index"


@dataclass(frozen=True)
class RuleIndex:
    """Watch lists and counter seeds for one ground program.

    ``heads[r]`` is the head of rule ``r``; ``positive_counts[r]`` /
    ``negative_counts[r]`` the number of *distinct* atoms in its positive /
    negative body.  ``watchers[a]`` / ``negative_watchers[a]`` list the
    rules watching atom ``a`` positively / negatively, each rule at most
    once per atom.
    """

    heads: tuple[Atom, ...]
    positive_counts: tuple[int, ...]
    negative_counts: tuple[int, ...]
    watchers: Mapping[Atom, tuple[int, ...]]
    negative_watchers: Mapping[Atom, tuple[int, ...]]
    definite_rules: tuple[int, ...]

    @property
    def rule_count(self) -> int:
        return len(self.heads)

    def fresh_counters(self) -> list[int]:
        """A mutable copy of the positive-body counters, ready for one
        propagation run."""
        return list(self.positive_counts)

    def statistics(self) -> dict[str, int]:
        return {
            "rules": len(self.heads),
            "definite_rules": len(self.definite_rules),
            "watched_atoms": len(self.watchers),
            "negatively_watched_atoms": len(self.negative_watchers),
            "watch_entries": sum(len(v) for v in self.watchers.values()),
            "negative_watch_entries": sum(len(v) for v in self.negative_watchers.values()),
        }


def build_index(context: "GroundContext") -> RuleIndex:
    """Construct the :class:`RuleIndex` of a ground context.

    Both watch lists and the counter seeds are derived in one pass over the
    rules; each list names a rule once per *distinct* body atom, so the
    counter decrements are exact.
    """
    heads: list[Atom] = []
    positive_counts: list[int] = []
    negative_counts: list[int] = []
    watchers: dict[Atom, list[int]] = {}
    negative_watchers: dict[Atom, list[int]] = {}
    definite: list[int] = []

    for index, rule in enumerate(context.rules):
        heads.append(rule.head)
        distinct_positive = set(rule.positive_body)
        positive_counts.append(len(distinct_positive))
        for atom in distinct_positive:
            watchers.setdefault(atom, []).append(index)
        distinct_negative = set(rule.negative_body)
        negative_counts.append(len(distinct_negative))
        if not distinct_negative:
            definite.append(index)
        for atom in distinct_negative:
            negative_watchers.setdefault(atom, []).append(index)

    return RuleIndex(
        heads=tuple(heads),
        positive_counts=tuple(positive_counts),
        negative_counts=tuple(negative_counts),
        watchers={atom: tuple(ids) for atom, ids in watchers.items()},
        negative_watchers={atom: tuple(ids) for atom, ids in negative_watchers.items()},
        definite_rules=tuple(definite),
    )


def get_index(context: "GroundContext") -> RuleIndex:
    """The context's rule index, built on first use and cached.

    Contexts are frozen dataclasses, so the cache is attached with
    ``object.__setattr__``; the index is itself immutable, making the shared
    instance safe across every operator evaluated on the context.
    """
    cached = getattr(context, _INDEX_ATTRIBUTE, None)
    if cached is None:
        cached = build_index(context)
        object.__setattr__(context, _INDEX_ATTRIBUTE, cached)
    return cached
