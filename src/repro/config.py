"""One validated configuration object for the whole evaluation stack.

:class:`EngineConfig` holds every evaluation choice in one frozen
dataclass, validated *once* at construction with error messages that
consistently list the accepted values.  It is accepted by
:class:`repro.session.KnowledgeBase`, :func:`repro.engine.solver.solve`
and every ``core``/``semantics`` entry point.  ``solve()`` and
``KnowledgeBase()`` also take ``semantics=``/``limits=`` conveniences,
merged into the config by :func:`resolve_config`.

This module is the one home of the option tuples; import them from
here.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional, Sequence

from .datalog.grounding import GroundingLimits
from .exceptions import EvaluationError, GroundingError
from .resilience.budget import Budget
from .storage import DEFAULT_STORE, SUPPORTED_STORES, open_store, parse_store_spec

__all__ = [
    "SUPPORTED_SEMANTICS",
    "DEFAULT_SEMANTICS",
    "EVALUATION_STRATEGIES",
    "DEFAULT_STRATEGY",
    "EVALUATION_ENGINES",
    "DEFAULT_ENGINE",
    "SUPPORTED_GROUNDERS",
    "DEFAULT_GROUNDER",
    "SUPPORTED_STORES",
    "DEFAULT_STORE",
    "validate_semantics",
    "validate_strategy",
    "validate_engine",
    "validate_grounder",
    "validate_store",
    "EngineConfig",
    "resolve_config",
    "merge_entry_config",
]

#: Model-theoretic semantics the solver can compute.  ``"auto"`` computes
#: the well-founded model: ``"horn"`` on a definite non-ground program
#: (read off the relevant grounder's envelope), ``"alternating-fixpoint"``
#: on any other.
SUPPORTED_SEMANTICS = (
    "auto",
    "alternating-fixpoint",
    "well-founded",
    "stratified",
    "horn",
    "fitting",
    "inflationary",
    "stable",
)
DEFAULT_SEMANTICS = "auto"

#: Fixpoint evaluation strategies: indexed delta-driven semi-naive
#: evaluation, and the literal re-scan-everything oracle.
EVALUATION_STRATEGIES = ("seminaive", "naive")
DEFAULT_STRATEGY = "seminaive"

#: Well-founded evaluation engines of a one-shot solve: the compiled
#: flat-array kernel (:mod:`repro.kernel`), which interns atoms to dense
#: ints and solves the SCC condensation of the atom dependency graph
#: component by component, and the paper's monolithic alternating
#: fixpoint, the reference it is differentially tested against.  A session
#: configured with the kernel maintains its model incrementally instead
#: (see :mod:`repro.session`).
EVALUATION_ENGINES = ("kernel", "monolithic")
DEFAULT_ENGINE = "kernel"

#: Grounders accepted by :func:`repro.core.context.build_context`: the
#: relevant instantiation (indexed semi-naive joins) and the literal
#: Herbrand instantiation Fitting's semantics needs.  The linear-scan
#: matcher is no grounder: it is the reference
#: :func:`repro.datalog.grounding.scan_relevant_ground`, the differential
#: oracle of the indexed one, called by name.
SUPPORTED_GROUNDERS = ("relevant", "naive")
DEFAULT_GROUNDER = "relevant"


def _unknown(kind: str, value: object, accepted: Sequence[str]) -> str:
    """The one error-message shape every option validator uses."""
    return f"unknown {kind} {value!r}; expected one of {', '.join(accepted)}"


def validate_semantics(semantics: str) -> str:
    """Return *semantics* if it is known, raising otherwise."""
    if semantics not in SUPPORTED_SEMANTICS:
        raise EvaluationError(_unknown("semantics", semantics, SUPPORTED_SEMANTICS))
    return semantics


def validate_strategy(strategy: str) -> str:
    """Return *strategy* if it is known, raising otherwise."""
    if strategy not in EVALUATION_STRATEGIES:
        raise EvaluationError(
            _unknown("evaluation strategy", strategy, EVALUATION_STRATEGIES)
        )
    return strategy


def validate_engine(engine: str) -> str:
    """Return *engine* if it is known, raising otherwise."""
    if engine not in EVALUATION_ENGINES:
        raise EvaluationError(_unknown("evaluation engine", engine, EVALUATION_ENGINES))
    return engine


def validate_grounder(grounder: str) -> str:
    """Return *grounder* if it is known, raising otherwise."""
    if grounder not in SUPPORTED_GROUNDERS:
        raise GroundingError(_unknown("grounder", grounder, SUPPORTED_GROUNDERS))
    return grounder


def validate_store(store: str) -> str:
    """Return the store spec if it is well-formed, raising otherwise.

    Accepted shapes: ``"memory"`` (default) or ``"sqlite:PATH"`` — see
    :func:`repro.storage.parse_store_spec`.
    """
    parse_store_spec(store)
    return store


@dataclass(frozen=True)
class EngineConfig:
    """Every evaluation choice, validated together at construction.

    Attributes
    ----------
    semantics:
        One of :data:`SUPPORTED_SEMANTICS`; ``"auto"`` (default) resolves
        to ``"horn"`` on a definite non-ground program and to
        ``"alternating-fixpoint"`` on any other (see
        :func:`~repro.engine.solver.resolve_auto_semantics`).
    strategy:
        ``S_P`` evaluation scheme, one of :data:`EVALUATION_STRATEGIES`.
        It applies to the object-level evaluators only: the monolithic
        alternating fixpoint, the ``W_P`` iteration and the Horn,
        stratified and stable evaluators.  The compiled kernel and
        sessions have one counter-driven scheme.
    engine:
        Well-founded evaluation engine, one of :data:`EVALUATION_ENGINES`.
        Only consulted by the well-founded / alternating-fixpoint semantics.
    grounder:
        One of :data:`SUPPORTED_GROUNDERS`.
    store:
        Fact-storage backend spec: ``"memory"`` (default) or
        ``"sqlite:PATH"``.  A :class:`~repro.session.KnowledgeBase` built
        with this config keeps its EDB in the named backend, and one-shot
        :func:`~repro.engine.solver.solve` calls read their facts from it
        (:meth:`create_store` opens the backend).
    limits:
        Optional :class:`~repro.datalog.grounding.GroundingLimits`.
    budget:
        Optional :class:`~repro.resilience.Budget` — wall-clock deadline,
        fixpoint-step cap, and/or cooperative cancel token, enforced at
        checkpoints in every evaluation phase.  Each solve or refresh that
        honours the config starts the budget afresh (a per-operation
        deadline, not a lifetime allowance).
    """

    semantics: str = DEFAULT_SEMANTICS
    strategy: str = DEFAULT_STRATEGY
    engine: str = DEFAULT_ENGINE
    grounder: str = DEFAULT_GROUNDER
    store: str = DEFAULT_STORE
    limits: Optional[GroundingLimits] = None
    budget: Optional[Budget] = None

    def __post_init__(self) -> None:
        validate_semantics(self.semantics)
        validate_strategy(self.strategy)
        validate_engine(self.engine)
        validate_grounder(self.grounder)
        validate_store(self.store)
        if self.limits is not None and not isinstance(self.limits, GroundingLimits):
            raise EvaluationError(
                f"limits must be a GroundingLimits instance, got {self.limits!r}"
            )
        if self.budget is not None and not isinstance(self.budget, Budget):
            raise EvaluationError(
                f"budget must be a repro.resilience.Budget instance, got {self.budget!r}"
            )

    # ------------------------------------------------------------------ #
    @property
    def resolved_grounder(self) -> str:
        """The grounder name :func:`~repro.core.context.build_context`
        consumes: the ``grounder`` field."""
        return self.grounder

    def replace(self, **changes: object) -> "EngineConfig":
        """A copy with some fields changed (re-validated on construction)."""
        return dataclasses.replace(self, **changes)

    def create_store(self):
        """Open the :class:`~repro.storage.FactStore` the ``store`` spec
        names (a fresh backend per call; the caller owns closing it)."""
        return open_store(self.store)

    def describe(self) -> dict[str, object]:
        """The configuration as a plain dict (CLI/REPL ``config`` display)."""
        return {
            "semantics": self.semantics,
            "strategy": self.strategy,
            "engine": self.engine,
            "grounder": self.grounder,
            "store": self.store,
            "limits": self.limits,
            "budget": self.budget.describe() if self.budget is not None else None,
        }


def merge_entry_config(
    config: Optional["EngineConfig"],
    *,
    strategy: Optional[str] = None,
    engine: Optional[str] = None,
    limits: Optional[GroundingLimits] = None,
    grounder: Optional[str] = None,
    default_engine: str = DEFAULT_ENGINE,
) -> tuple[str, str, Optional[GroundingLimits], Optional[str], Optional[Budget]]:
    """Resolve the ``(strategy, engine, limits, grounder, budget)`` tuple a
    ``core`` or ``semantics`` entry point runs with.

    With a *config*, the entry point's own ``strategy=``/``engine=``/
    ``grounder=`` keywords must not also be given (``limits=`` may still
    override the config's), and the returned grounder is the config's —
    entry points forward it to :func:`~repro.core.context.build_context`
    so a config's grounder choice is honoured everywhere, not only by
    ``solve``.  The budget is always the config's (there is no keyword
    spelling); entry
    points activate it with :func:`repro.resilience.metered`, which also
    inherits an ambient meter when the budget is ``None`` — so nested
    calls made inside a governed solve stay governed.  Without a config,
    the keywords are validated individually, unset fields fall back to
    the defaults (*default_engine* lets entry points whose historical
    default is the monolithic engine keep it), and the grounder is
    ``None`` (i.e. ``build_context``'s own default).
    """
    if config is not None:
        conflicts = [
            name
            for name, value in (
                ("strategy", strategy),
                ("engine", engine),
                ("grounder", grounder),
            )
            if value is not None
        ]
        if conflicts:
            raise EvaluationError(
                f"got both config= and {'/'.join(conflicts)}=; "
                "pass the value inside the config"
            )
        return (
            config.strategy,
            config.engine,
            limits if limits is not None else config.limits,
            config.grounder,
            config.budget,
        )
    return (
        validate_strategy(strategy if strategy is not None else DEFAULT_STRATEGY),
        validate_engine(engine if engine is not None else default_engine),
        limits,
        validate_grounder(grounder) if grounder is not None else None,
        None,
    )


def resolve_config(
    config: Optional[EngineConfig] = None,
    *,
    semantics: Optional[str] = None,
    limits: Optional[GroundingLimits] = None,
) -> EngineConfig:
    """Merge a ``config=`` argument with the ``semantics=``/``limits=``
    conveniences of :func:`~repro.engine.solver.solve` and
    :class:`~repro.session.KnowledgeBase`: either overrides the
    corresponding config field.  Without a config, the defaults apply.
    """
    if config is None:
        config = EngineConfig()
    if semantics is not None:
        config = config.replace(semantics=validate_semantics(semantics))
    if limits is not None:
        config = config.replace(limits=limits)
    return config
