"""The stateful :class:`KnowledgeBase` session API.

The paper's deductive-database framing (Section 2.5) is a *database*: a
fixed rule set queried and updated over time.  The one-shot
:func:`repro.engine.solver.solve` re-grounds and re-solves on every call;
a :class:`KnowledgeBase` instead holds the rules plus a mutable EDB and
keeps the solved model warm:

.. code-block:: python

    from repro.session import KnowledgeBase

    kb = KnowledgeBase("wins(X) :- move(X, Y), not wins(Y).")
    kb.load({"move": [("a", "b"), ("b", "a"), ("b", "c")]})
    list(kb.query("wins"))          # [('b',)]
    kb.assert_fact("move", "c", "d")
    list(kb.query("wins"))          # [('b',), ('c',)] — model refreshed

Mutations (:meth:`~KnowledgeBase.assert_fact`,
:meth:`~KnowledgeBase.retract_fact`, :meth:`~KnowledgeBase.load`) are
lazy: the model refreshes on the next read.  Group related updates in
``with kb.batch():`` — the block is transactional (an exception rolls the
whole group back) and the eventual refresh covers the net delta once.

When the (resolved) semantics gives the well-founded model of the rules —
the well-founded family; ``auto``, which resolves to ``horn`` on definite
non-ground rules and to ``alternating-fixpoint`` on any other (see
:func:`~repro.engine.solver.resolve_auto_semantics`); or a requested
``stratified``/``horn`` on rules of that class — and the engine is the
kernel (the default), refreshes are *incremental*:
atom-level counting and delete-and-rederive maintain the components of
the atom dependency graph the changed facts reach, and a component is
re-solved whole only where negation is recursive
(:mod:`repro.session.incremental`).  The model is kept once, in the
engine's aggregate verdict sets: the compiled kernel of
:mod:`repro.kernel` is a one-shot evaluator.  The session subscribes to
its store once and hands the engine each refresh's net change set.
Non-ground rules are grounded incrementally too: each refresh grounds
only the rule instances the newly asserted facts enable, and retracted
facts keep theirs.  True and undefined atoms are
always those of a from-scratch solve; :attr:`KnowledgeBase.base` is then
an over-approximation whose extra atoms are false.  The remaining
configurations — a semantics whose model differs from the well-founded
one (Fitting, inflationary, stable), a requested class the rules do not
meet (which raises on every read), the monolithic engine and the naive
grounder — re-solve from scratch per refresh, with the same observable
results.

An incremental refresh also *publishes* in O(flips): the epoch's
:class:`~repro.engine.solver.Solution` answers every read from an
immutable per-predicate :class:`~repro.engine.view.ModelView` derived
from the previous epoch's — predicates the refresh did not move are
shared, flipped ones rebuilt copy-on-write, page orders cached — and its
``program``, ``base``, ``interpretation`` and ``context`` are computed
only if read.  Outside maintenance an update then costs O(flips) Python
work plus a C-level copy of each flipped predicate's moved sets.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from contextlib import contextmanager
from functools import cached_property
from operator import attrgetter
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union

from ..analysis.stratification import is_stratified
from ..config import EngineConfig, resolve_config
from ..core.alternating import AlternatingFixpointResult, AlternatingStage
from ..core.context import GroundContext
from ..core.explain import Explainer, Explanation
from ..datalog.atoms import Atom
from ..datalog.parser import parse_atom, parse_program
from ..datalog.rules import Program, Rule
from ..datalog.terms import Compound, Constant, Variable
from ..engine.query import QueryAnswer, answers as query_answers, ask as query_ask
from ..engine.solver import Solution, resolve_auto_semantics, solve_configured
from ..engine.view import ModelView, PredicateView
from ..exceptions import EvaluationError, NotGroundError
from ..fixpoint.interpretations import PartialInterpretation, TruthValue
from ..fixpoint.lattice import NegativeSet
from ..obs.recorder import NULL_RECORDER, Recorder
from ..resilience.budget import metered
from ..storage import FactStore, open_store
from .incremental import IncrementalEngine, UpdateStats

__all__ = ["KnowledgeBase", "ResultSet", "SessionSnapshot"]

#: Semantics whose model the incremental engine maintains (it computes the
#: well-founded partial model, which these two name interchangeably).
_WFS_FAMILY = ("well-founded", "alternating-fixpoint")
#: Semantics that give the well-founded model on the rules their class test
#: admits: the perfect model of a stratified program and the minimum model
#: of a definite one are its total well-founded model.  On any other rules
#: they raise, so a solution under them always holds the well-founded model.
_WFS_CLASSES = {"stratified": is_stratified, "horn": attrgetter("is_definite")}


def _alternating_result(solution: Solution) -> AlternatingFixpointResult:
    """What the explainer justifies *solution*'s verdicts against.

    A solution under a semantics that gives the well-founded model (the
    WFS family, or stratified/Horn, which raise on any other program) is
    wrapped as is, with the ground context it was solved over: no second
    solve, and no re-grounding unless the producer dropped the context.
    Under any other semantics a well-founded model is computed for the
    explanation.
    """
    if solution.semantics not in _WFS_FAMILY and solution.semantics not in _WFS_CLASSES:
        from ..core.alternating import alternating_fixpoint

        return alternating_fixpoint(solution.program, config=solution.config)
    context = solution.context
    if context is None:
        from ..core.context import build_context

        context = build_context(solution.program, config=solution.config)
    model = solution.interpretation
    negative = NegativeSet(model.false_atoms)
    return AlternatingFixpointResult(
        context=context,
        negative_fixpoint=negative,
        positive_fixpoint=model.true_atoms,
        stages=(AlternatingStage(0, negative, model.true_atoms),),
    )


class _EpochSolution(Solution):
    """The :class:`~repro.engine.solver.Solution` of one incremental
    session epoch.

    Reads go to *view*, the epoch's published
    :class:`~repro.engine.view.ModelView`.  ``program``, ``base``,
    ``interpretation`` and ``context`` are computed on first read from the
    epoch's immutable inputs — the rules, the engine's rule context as of
    the epoch (replaced, never mutated, when the grounding grows) and the
    view's fact sets — so publishing the epoch costs none of them.
    """

    def __init__(
        self,
        view: ModelView,
        rules: Program,
        rule_context: GroundContext,
        *,
        semantics: str,
        strategy: str,
        engine: str,
        config: EngineConfig,
    ):
        self.__dict__.update(
            view=view,
            semantics=semantics,
            strategy=strategy,
            engine=engine,
            config=config,
            _rules=rules,
            _rule_context=rule_context,
        )

    @cached_property
    def _facts(self) -> frozenset[Atom]:
        return self.view.facts()

    @cached_property
    def program(self) -> Program:
        return Program([*(Rule(atom) for atom in self._facts), *self._rules])

    @cached_property
    def base(self) -> frozenset[Atom]:
        return self._rule_context.base | self._facts

    @cached_property
    def interpretation(self) -> PartialInterpretation:
        # Every rule atom is true, false or undefined; facts outside the
        # rules are true.  So the false atoms are the rule atoms the view
        # holds as neither.
        true_atoms = self.view.true_atoms()
        false_atoms = self._rule_context.base - true_atoms - self.view.undefined_atoms()
        return PartialInterpretation(true_atoms, false_atoms)

    @cached_property
    def context(self) -> GroundContext:
        return dataclasses.replace(self._rule_context, facts=self._facts, base=self.base)


def _match_row(row: Sequence[object], pattern: Sequence[object]) -> bool:
    """Does *row* (unwrapped Python values) match *pattern*?

    Pattern items: ``None`` matches anything; a :class:`Variable` matches
    anything but repeated occurrences must bind to equal values; a
    :class:`Constant` matches its payload; anything else matches by
    equality.
    """
    if len(row) != len(pattern):
        return False
    binding: dict[str, object] = {}
    for value, item in zip(row, pattern):
        if item is None:
            continue
        if isinstance(item, Variable):
            if item.name in binding:
                if binding[item.name] != value:
                    return False
            else:
                binding[item.name] = value
        elif isinstance(item, Constant):
            if item.value != value:
                return False
        elif item != value:
            return False
    return True


class ResultSet:
    """A lazy, predicate-indexed view of one relation in the current model.

    Nothing is computed at construction: iterating (or ``len()``,
    ``in``, :meth:`first`) pulls the owning knowledge base's *current*
    solution — so a result set stays live across updates, and reads after
    an ``assert_fact`` see the refreshed model.  Every read goes to the
    predicate's entry in the epoch's :class:`~repro.engine.view.ModelView`:
    with no pattern, ``len``/``in``/``bool`` and :meth:`to_set` use the
    epoch's frozen row set as is, and iteration walks its cached page
    order — nothing is copied or sorted per call.
    """

    def __init__(
        self,
        kb: "KnowledgeBase",
        predicate: str,
        pattern: Optional[tuple[object, ...]] = None,
        truth: TruthValue = TruthValue.TRUE,
    ):
        self._kb = kb
        self._predicate = predicate
        self._pattern = pattern
        self._truth = truth

    # -- the lazy core --------------------------------------------------- #
    def _view(self) -> PredicateView:
        return self._kb.solution.view.predicate(self._predicate)

    def _rows(self) -> frozenset[tuple[object, ...]]:
        rows = self._view().rows(self._truth)
        if self._pattern is None:
            return rows
        return frozenset(row for row in rows if _match_row(row, self._pattern))

    # -- fluent refinements ---------------------------------------------- #
    def where(self, *pattern: object) -> "ResultSet":
        """A narrowed view matching *pattern* (see :meth:`KnowledgeBase.query`)."""
        return ResultSet(self._kb, self._predicate, tuple(pattern), self._truth)

    @property
    def undefined(self) -> "ResultSet":
        """The same view over the *undefined* tuples of the predicate
        (non-empty only under partial semantics)."""
        return ResultSet(self._kb, self._predicate, self._pattern, TruthValue.UNDEFINED)

    # -- consumption ----------------------------------------------------- #
    def __iter__(self) -> Iterator[tuple[object, ...]]:
        order = self._view().order(self._truth)
        if self._pattern is None:
            return iter(order)
        pattern = self._pattern
        return (row for row in order if _match_row(row, pattern))

    def __len__(self) -> int:
        return len(self._rows())

    def __bool__(self) -> bool:
        return bool(self._rows())

    def __contains__(self, row: object) -> bool:
        if not isinstance(row, tuple):
            row = (row,)
        return row in self._rows()

    def first(self, default: object = None) -> object:
        """The first row in sorted order, or *default* when empty."""
        return next(iter(self), default)

    def to_set(self) -> frozenset[tuple[object, ...]]:
        """All rows as a frozen set — with no pattern, the epoch's own."""
        return self._rows()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        qualifier = ".undefined" if self._truth is TruthValue.UNDEFINED else ""
        return f"ResultSet({self._predicate!r}{qualifier}, {len(self)} rows)"


class SessionSnapshot:
    """A consistent, immutable view of one model epoch — the read-side
    half of the epoch/refresh handoff the query service is built on.

    A snapshot bundles the *epoch* (monotone refresh counter), the
    refreshed :class:`~repro.engine.solver.Solution` at that epoch and the
    epoch's EDB size (``fact_count``); it holds no view of the store.  The
    solution is immutable: its reads go to the epoch's
    :class:`~repro.engine.view.ModelView`, which shares every
    predicate the refresh did not move with the epoch before (and refers
    to no earlier epoch), and whatever it computes lazily — the program,
    base, interpretation and ground context of the epoch, a predicate's
    page order — is a pure function of that epoch's immutable inputs, so
    reader threads racing to compute it get equal values.  Everything a
    read needs is reachable from the snapshot alone, so any number of
    threads can serve from it while the owning knowledge base keeps
    mutating — and two responses stamped with the same epoch are
    guaranteed to have read the same model.

    Query helpers mirror the :class:`KnowledgeBase` read surface
    (:meth:`relation`, :meth:`ask`, :meth:`answers`, :meth:`explain`,
    :meth:`value_of`) but never touch the live session.  The explainer is
    built lazily from the snapshot's own solution, guarded by a
    per-snapshot lock (its derivation cache is the one mutable corner).
    """

    __slots__ = (
        "epoch",
        "solution",
        "fact_count",
        "created",
        "_lock",
        "_explainer",
    )

    def __init__(
        self,
        epoch: int,
        solution: Solution,
        fact_count: int,
    ) -> None:
        self.epoch = epoch
        self.solution = solution
        self.fact_count = fact_count
        self.created = time.time()
        self._lock = threading.Lock()
        self._explainer: Optional[Explainer] = None

    # -- reads ----------------------------------------------------------- #
    @property
    def semantics(self) -> str:
        return self.solution.semantics

    def relation(self, predicate: str) -> set[tuple[object, ...]]:
        """True tuples of *predicate* at this epoch."""
        return self.solution.relation(predicate)

    def undefined_relation(self, predicate: str) -> set[tuple[object, ...]]:
        """Undefined tuples of *predicate* at this epoch."""
        return self.solution.undefined_relation(predicate)

    def rows(
        self,
        predicate: str,
        pattern: Optional[Sequence[object]] = None,
        truth: TruthValue = TruthValue.TRUE,
    ) -> list[tuple[object, ...]]:
        """Sorted, optionally pattern-filtered tuples of one relation —
        the deterministic ordering pagination relies on, read from the
        epoch's cached page order (sorted at most once per epoch and
        predicate).

        The pattern matches as a *prefix*: a caller filtering on the
        first argument positions need not know the relation's arity (the
        HTTP layer builds patterns from positional ``a0=..`` parameters).
        """
        order = self.solution.view.predicate(predicate).order(truth)
        if pattern is None:
            return list(order)
        probe = tuple(pattern)
        width = len(probe)
        return [row for row in order if len(row) >= width and _match_row(row[:width], probe)]

    def ask(self, query: str) -> TruthValue:
        """Three-valued verdict of a ground conjunctive query."""
        return query_ask(self.solution, query)

    def answers(self, query: str) -> Iterator[QueryAnswer]:
        """Substitutions satisfying a conjunctive query with variables."""
        return query_answers(self.solution, query)

    def value_of(self, atom: Union[Atom, str]) -> TruthValue:
        if isinstance(atom, str):
            atom = parse_atom(atom)
        return self.solution.value_of(atom)

    def explain(self, atom: Union[Atom, str]) -> Explanation:
        """Justify an atom's verdict in this epoch's model (thread-safe)."""
        if isinstance(atom, str):
            atom = parse_atom(atom)
        with self._lock:
            if self._explainer is None:
                self._explainer = Explainer(_alternating_result(self.solution))
            return self._explainer.explain(atom)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SessionSnapshot(epoch={self.epoch}, {self.fact_count} facts, "
            f"semantics={self.semantics!r})"
        )


class KnowledgeBase:
    """A long-lived deductive-database session.

    Each successful refresh publishes one epoch: :attr:`solution` (and
    :meth:`snapshot`) then hold an immutable solution of that epoch.  On
    the incremental path it is derived from the previous epoch's in
    O(flips) — see the module notes — and on the rebuild path it is a
    fresh one-shot :class:`~repro.engine.solver.Solution`.

    Parameters
    ----------
    rules:
        Program text or a :class:`~repro.datalog.rules.Program`.  Fact
        rules in it seed the EDB (and are retractable like any other
        fact); the non-fact rules are fixed for the session's lifetime.
    facts:
        Optional initial EDB, copied into the session's store: another
        :class:`~repro.storage.FactStore`, a mapping
        ``{"edge": [(1, 2), ...]}``, or an iterable of ground atoms.
    store:
        The :class:`~repro.storage.FactStore` backend holding the EDB — an
        instance, or a spec string (``"memory"`` / ``"sqlite:PATH"``).
        Defaults to the backend named by ``config.store``.  Facts already
        in the backend (a reopened SQLite file) are part of the session
        from the first read; ``facts=`` loads *into* the backend on top.
        The session subscribes to the store's change events, so even
        mutations performed directly on ``kb.store`` invalidate exactly
        the affected model state.
    config:
        The :class:`~repro.config.EngineConfig` every evaluation runs
        under.
    recorder:
        Optional :class:`~repro.obs.Recorder` instrumenting the session:
        every solve and incremental refresh the knowledge base performs is
        traced through it (``solve`` / ``refresh`` spans and their phase
        children).  Defaults to the zero-cost null recorder.
    semantics, limits:
        Optional overrides of the config's fields, as in
        :func:`repro.engine.solver.solve`.
    """

    def __init__(
        self,
        rules: Union[str, Program, None] = "",
        *,
        facts: Union[FactStore, Mapping, Iterable[Atom], None] = None,
        store: Union[FactStore, str, None] = None,
        config: Optional[EngineConfig] = None,
        recorder: Optional[Recorder] = None,
        semantics: Optional[str] = None,
        limits=None,
    ):
        self._config = resolve_config(config, semantics=semantics, limits=limits)
        if rules is None:
            rules = Program()
        elif isinstance(rules, str):
            rules = parse_program(rules)
        self._rules = Program(rule for rule in rules if not rule.is_fact)

        # A store the session opened itself (from a spec or the config) is
        # closed by close(); a caller-supplied instance stays the caller's
        # to close — it may back other sessions or one-shot solves.
        self._owns_store = not isinstance(store, FactStore)
        if store is None:
            store = self._config.create_store()
        elif isinstance(store, str):
            store = open_store(store)
        elif not isinstance(store, FactStore):
            raise EvaluationError(
                f"store must be a FactStore or a spec string, got {store!r}"
            )
        self._store = store
        # The current EDB, for O(1) membership.  The store's change events
        # (`_on_store_change`) maintain it, so it tracks *every* mutation,
        # not only the session's own.
        self._facts: set[Atom] = set()
        # Atoms mutated since the last refresh, mapped to their presence
        # *before* the first mutation: an atom is genuinely pending iff its
        # current presence differs from that original — assert+retract
        # pairs cancel, while duplicate same-direction events cannot
        # cancel a pending change (they never touch the recorded origin).
        self._changed: dict[Atom, bool] = {}
        self._batch_tokens: list[object] = []
        self._dirty = True
        self._solution: Optional[Solution] = None
        self._explainer: Optional[Explainer] = None
        self._engine: Optional[IncrementalEngine] = None
        self._resolved_semantics: Optional[str] = None
        self._incremental: Optional[bool] = None
        self._last_update: Optional[UpdateStats] = None
        self._update_count = 0
        self._recorder = recorder if recorder is not None else NULL_RECORDER
        # Cumulative refresh history (drives `statistics()` / repl `stats`).
        self._refresh_elapsed = 0.0
        self._refresh_modes: dict[str, int] = {}
        self._rules_added = 0

        # Pre-existing backend contents (a reopened persistent store) seed
        # the fact set before we start listening for changes.
        self._facts.update(self._store.facts())
        self._store.subscribe(self._on_store_change)

        for rule in rules.facts():
            self._insert(rule.head)
        if facts is not None:
            self.load(facts)
        # Nothing asserted so far is a "change": the first solve is full.
        self._changed.clear()

    @classmethod
    def open(
        cls,
        path: str,
        rules: Union[str, Program, None] = "",
        *,
        config: Optional[EngineConfig] = None,
        **options,
    ) -> "KnowledgeBase":
        """Open (or create) a persistent knowledge base at *path*.

        The EDB lives in a :class:`~repro.storage.SqliteStore`; facts
        asserted through the session are durable, and reopening the same
        path restores them:

        .. code-block:: python

            with KnowledgeBase.open("kb.db", RULES) as kb:
                kb.assert_fact("edge", 1, 2)
            # later, in another process:
            with KnowledgeBase.open("kb.db", RULES) as kb:
                list(kb.query("tc"))    # derived from the persisted EDB

        Rules are *not* persisted — they parameterise the session, exactly
        as with an in-memory knowledge base.
        """
        # A spec string (not an instance), so the session owns the store
        # and close() releases the file.
        return cls(rules, store=f"sqlite:{path}", config=config, **options)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def config(self) -> EngineConfig:
        return self._config

    @property
    def rules(self) -> Program:
        """The fixed (non-fact) rule set of the session."""
        return self._rules

    @property
    def store(self) -> FactStore:
        """The :class:`~repro.storage.FactStore` holding the session's EDB."""
        return self._store

    def close(self) -> None:
        """Detach from the store, closing it if the session opened it.

        A store the session created (from a spec string, ``config.store``
        or :meth:`open`) is flushed and closed; a caller-supplied instance
        is only unsubscribed from, since it may back other sessions.
        Idempotent.  The knowledge base must not be used afterwards.
        """
        self._store.unsubscribe(self._on_store_change)
        if self._owns_store:
            self._store.close()

    def __enter__(self) -> "KnowledgeBase":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def facts(self, predicate: Optional[str] = None) -> Iterator[Atom]:
        """The current EDB facts, optionally restricted to one predicate."""
        if predicate is None:
            yield from sorted(self._facts, key=str)
        else:
            yield from sorted(
                (atom for atom in self._facts if atom.predicate == predicate), key=str
            )

    def fact_count(self) -> int:
        return len(self._facts)

    @property
    def semantics(self) -> str:
        """The concrete semantics the session evaluates under: ``"auto"``
        resolved against the rule set by
        :func:`~repro.engine.solver.resolve_auto_semantics`, as a one-shot
        solve of the same rules names it."""
        self._resolve_mode()
        return self._resolved_semantics

    @property
    def is_incremental(self) -> bool:
        """Whether refreshes use the incremental component engine."""
        self._resolve_mode()
        return self._incremental

    @property
    def last_update(self) -> Optional[UpdateStats]:
        """Statistics of the most recent model refresh."""
        return self._last_update

    @property
    def recorder(self) -> Recorder:
        """The :class:`~repro.obs.Recorder` the session's evaluations run
        under (the null recorder unless one was passed at construction)."""
        return self._recorder

    def statistics(self) -> dict[str, object]:
        """Session counters plus cumulative refresh history (including
        ``rules_added``, the ground rules incremental grounding appended),
        store stats and — when incremental — the solved program's shape
        (``components``, ``largest_component``, ``ground_rules``,
        ``atoms``).  How the last refresh solved its components is
        ``last_update``; a session's per-component log is the
        ``component`` spans of its recorder."""
        self._refresh()
        stats: dict[str, object] = {
            "rules": len(self._rules),
            "facts": len(self._facts),
            "semantics": self.semantics,
            "incremental": self.is_incremental,
            "store": type(self._store).__name__,
            "refreshes": self._update_count,
        }
        if self._update_count:
            stats["refresh_total_s"] = round(self._refresh_elapsed, 6)
            stats["refresh_mean_s"] = round(
                self._refresh_elapsed / self._update_count, 6
            )
            stats["refresh_modes"] = dict(self._refresh_modes)
            stats["rules_added"] = self._rules_added
        if self._last_update is not None:
            stats["last_mode"] = self._last_update.mode
            stats["last_update"] = self._last_update.describe()
        store_stats = self._store.stats()
        stats["store_rows"] = store_stats["rows"]
        stats["store_indexes"] = store_stats["indexes"]
        stats["store_probes"] = store_stats["probes"]
        if self._engine is not None:
            stats.update(self._engine.statistics())
        return stats

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    def assert_fact(self, fact: Union[Atom, str], *values: object) -> bool:
        """Insert an EDB fact; returns whether the database changed.

        Accepts a ground :class:`Atom`, fact text (``"edge(1, 2)"``), or a
        predicate name plus Python values (``kb.assert_fact("edge", 1, 2)``).
        """
        return self._insert(self._coerce(fact, values))

    def retract_fact(self, fact: Union[Atom, str], *values: object) -> bool:
        """Remove an EDB fact; returns whether the database changed."""
        return self._remove(self._coerce(fact, values))

    def load(self, source: Union[FactStore, Mapping, Iterable[Atom]]) -> int:
        """Bulk-assert facts; returns how many were new.

        Accepts another :class:`~repro.storage.FactStore`, a mapping
        ``{relation: rows}``, or an iterable of ground atoms.  Delegates to
        the backing store's own :meth:`~repro.storage.FactStore.load`; the
        session observes the resulting change events as usual.
        """
        return self._store.load(source)

    @contextmanager
    def batch(self):
        """Group mutations transactionally.

        Inside the block mutations apply immediately (reads see them), but
        an exception rolls every mutation of the block back before
        propagating; on success the whole net delta is covered by one
        model refresh at the next read.  The block is a store savepoint,
        so on a durable backend an aborted batch never reaches disk.
        """
        token = self._store.savepoint()
        self._batch_tokens.append(token)
        try:
            yield self
        except BaseException:
            # The rollback notifies the inverse of every undone mutation,
            # which re-synchronises `_facts` / `_changed` through
            # `_on_store_change`.
            self._store.rollback_to(token)
            raise
        else:
            self._store.release(token)
        finally:
            self._batch_tokens.pop()

    # -- mutation plumbing ----------------------------------------------- #
    def _coerce(self, fact: Union[Atom, str], values: Sequence[object]) -> Atom:
        if isinstance(fact, Atom):
            if values:
                raise EvaluationError(
                    "pass either a ready atom or predicate-plus-values, not both"
                )
            atom = fact
        elif values:
            atom = Atom(fact, tuple(_make_constant(value) for value in values))
        else:
            atom = parse_atom(fact)
        if not atom.is_ground:
            raise NotGroundError(f"EDB fact {atom} is not ground")
        return atom

    def _insert(self, atom: Atom) -> bool:
        if not atom.is_ground:
            raise NotGroundError(f"EDB fact {atom} is not ground")
        return self._store.add_atom(atom)

    def _remove(self, atom: Atom) -> bool:
        return self._store.remove_atom(atom)

    def _on_store_change(self, atom: Atom, added: bool) -> None:
        """The store's change-notification hook: every successful mutation
        (the session's own, a batch rollback's inverse replay, or a direct
        mutation of :attr:`store` by other code) lands here."""
        if added:
            self._facts.add(atom)
        else:
            self._facts.discard(atom)
        self._note_change(atom, added)

    def _note_change(self, atom: Atom, added: bool) -> None:
        # A fact asserted then retracted (or vice versa) since the last
        # refresh cancels out: `_changed` remembers the atom's presence
        # before its first mutation, and `_refresh_inner` compares that
        # origin against the current EDB — so the pending set is exactly
        # the atoms whose status differs from the solved state, robust to
        # replayed same-direction events.  The old Solution object stays
        # referenced (it is an immutable snapshot); `_refresh` replaces it
        # when the net delta is non-empty.
        if atom not in self._changed:
            # The store notifies only on actual mutation, so before this
            # event the atom's presence was the opposite direction.
            self._changed[atom] = not added
        self._dirty = True
        self._explainer = None

    # ------------------------------------------------------------------ #
    # Solving
    # ------------------------------------------------------------------ #
    def _resolve_mode(self) -> None:
        if self._incremental is not None:
            return
        semantics = self._config.semantics
        if semantics == "auto":
            semantics = resolve_auto_semantics(self._rules)
        self._resolved_semantics = semantics
        # The engine maintains the well-founded model, so it serves every
        # semantics that gives it for these rules; a requested class the
        # rules do not meet is left to the rebuild, whose evaluator raises.
        # Both the policy and the class tests read the rules alone: facts
        # are definite and ground and add no dependency arcs, so deciding
        # once is safe.  Non-ground rules are grounded incrementally by the
        # engine, with the relevant grounder (a naive grounding's base is
        # the whole Herbrand base, which no envelope tracks).
        in_class = _WFS_CLASSES.get(semantics)
        self._incremental = (
            (semantics in _WFS_FAMILY or (in_class is not None and in_class(self._rules)))
            and self._config.engine != "monolithic"
            and (self._rules.is_ground or self._config.grounder == "relevant")
        )

    def _refresh(self) -> None:
        if not self._dirty:
            return
        # The whole refresh — semantics resolution, engine construction,
        # the solve itself — is one budget-metered operation; the nested
        # metered() blocks downstream (solve_configured, the incremental
        # engine's refresh) recognise the same Budget and reuse this
        # meter, so the deadline covers the operation end to end.
        with metered(self._config.budget) as meter:
            self._resolve_mode()
            meter.check("refresh")
            self._refresh_inner()

    def _refresh_inner(self) -> None:
        # The pending delta is cleared only after a successful solve: a
        # refresh that raises (no stable model, grounding limit, ...) must
        # leave the changes queued so the next read retries instead of
        # serving a model that contradicts the EDB.
        changed = {
            atom
            for atom, was_present in self._changed.items()
            if (atom in self._facts) != was_present
        }
        if not changed and self._solution is not None:
            # Every mutation since the last refresh cancelled out.
            self._changed.clear()
            self._dirty = False
            return
        if self._incremental:
            if self._engine is None:
                # The engine's first refresh is full; it ignores *changed*.
                self._engine = IncrementalEngine(
                    self._rules,
                    store=self._store,
                    recorder=self._recorder,
                    budget=self._config.budget,
                    limits=self._config.limits,
                )
            stats = self._engine.refresh(self._facts, changed)
            # Publication is O(flips): the engine derives the epoch's view
            # from the previous one, and everything else the solution
            # offers is computed from the epoch's immutable inputs on first
            # read — from a detached SessionSnapshot too, without touching
            # the live engine from reader threads.
            solution = _EpochSolution(
                self._engine.view,
                self._rules,
                self._engine.rule_context,
                semantics=self._resolved_semantics,
                strategy=self._config.strategy,
                engine=self._config.engine,
                config=self._config,
            )
        else:
            started = time.perf_counter()
            # Rules only: the EDB travels as the live store, so the
            # grounder probes its indexes instead of re-indexing the facts
            # (the solution's program still records them as fact rules).
            solution = solve_configured(
                self._rules, self._config, store=self._store, recorder=self._recorder
            )
            stats = UpdateStats(
                mode="initial" if self._update_count == 0 else "rebuild",
                changed=len(changed),
                components_total=0,
                components_recomputed=0,
                components_reused=0,
                floating_changed=0,
                elapsed=time.perf_counter() - started,
            )
        self._changed = {}
        self._solution = solution
        self._last_update = stats
        self._update_count += 1
        self._refresh_elapsed += stats.elapsed
        self._refresh_modes[stats.mode] = self._refresh_modes.get(stats.mode, 0) + 1
        self._rules_added += stats.rules_added
        self._dirty = False

    @property
    def solution(self) -> Solution:
        """The current :class:`~repro.engine.solver.Solution`, refreshed on
        demand."""
        self._refresh()
        return self._solution

    @property
    def model(self) -> PartialInterpretation:
        """The current partial model."""
        return self.solution.interpretation

    @property
    def base(self) -> frozenset[Atom]:
        """The current atom universe."""
        return self.solution.base

    @property
    def epoch(self) -> int:
        """Number of successful model refreshes so far — the monotone
        counter :meth:`snapshot` stamps on its views.  Two reads under the
        same epoch saw the same model."""
        return self._update_count

    def snapshot(self) -> SessionSnapshot:
        """Publish a :class:`SessionSnapshot` of the current model epoch.

        Refreshes first (so the snapshot is never stale relative to the
        EDB), then captures the immutable solution, the EDB's fact count
        and the epoch counter.  The snapshot is safe to read from any
        number of threads while this session — which is itself *not*
        thread-safe — keeps mutating; the query service takes one after
        every applied write and swaps it in atomically.
        """
        self._refresh()
        return SessionSnapshot(
            epoch=self._update_count,
            solution=self._solution,
            fact_count=len(self._facts),
        )

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def query(self, predicate: str, *pattern: object) -> ResultSet:
        """A lazy view of the true tuples of *predicate*.

        With no pattern, every true tuple; pattern items narrow it:
        ``None`` or a :class:`~repro.datalog.terms.Variable` are wildcards
        (a repeated variable must bind consistently), anything else must
        equal the value:

        >>> kb.query("wins")                  # doctest: +SKIP
        >>> kb.query("edge", 1, None)         # doctest: +SKIP
        >>> kb.query("edge", X, X)            # doctest: +SKIP
        """
        return ResultSet(self, predicate, tuple(pattern) if pattern else None)

    def ask(self, query: str) -> TruthValue:
        """Three-valued verdict of a ground conjunctive query."""
        return query_ask(self.solution, query)

    def answers(self, query: str) -> Iterator[QueryAnswer]:
        """Substitutions satisfying a conjunctive query with variables."""
        return query_answers(self.solution, query)

    def value_of(self, atom: Union[Atom, str]) -> TruthValue:
        """Truth value of one ground atom."""
        if isinstance(atom, str):
            atom = parse_atom(atom)
        return self.solution.value_of(atom)

    def is_true(self, predicate: str, *values: object) -> bool:
        return self.solution.is_true(predicate, *values)

    def is_false(self, predicate: str, *values: object) -> bool:
        return self.solution.is_false(predicate, *values)

    def is_undefined(self, predicate: str, *values: object) -> bool:
        return self.solution.is_undefined(predicate, *values)

    def explain(self, atom: Union[Atom, str]) -> Explanation:
        """Justify an atom's verdict in the *well-founded* model of the
        current program (see :mod:`repro.core.explain`).

        Under a semantics that gives the well-founded model (the WFS
        family, stratified, Horn) the explanation is built against the
        session's model; under other semantics a well-founded model is
        computed for the explanation.
        """
        if isinstance(atom, str):
            atom = parse_atom(atom)
        self._refresh()
        if self._explainer is None:
            self._explainer = Explainer(_alternating_result(self._solution))
        return self._explainer.explain(atom)

    def __len__(self) -> int:
        return len(self._facts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"KnowledgeBase({len(self._rules)} rules, {len(self._facts)} facts, "
            f"semantics={self._config.semantics!r}, engine={self._config.engine!r})"
        )


def _make_constant(value: object):
    if isinstance(value, (Constant, Variable, Compound)):
        return value
    return Constant(value)
