"""repro — a reproduction of Van Gelder's alternating fixpoint (PODS 1989).

The package implements the alternating fixpoint characterisation of the
well-founded semantics for logic programs with negation, together with the
substrates it rests on (a Datalog engine with grounding and analysis) and
the semantics it is compared against (stable models, stratified, Fitting,
inflationary).

Quickstart
----------
>>> from repro import parse_program, alternating_fixpoint
>>> program = parse_program('''
...     move(a, b).  move(b, a).  move(b, c).
...     wins(X) :- move(X, Y), not wins(Y).
... ''')
>>> result = alternating_fixpoint(program)
>>> sorted(str(a) for a in result.true_atoms() if a.predicate == "wins")
['wins(b)']

For a long-lived, updatable database use a :class:`KnowledgeBase` — facts
are asserted and retracted against a live session and the solved model
stays warm across updates.  Under the defaults maintenance is
incremental, for non-ground rules as below too: the grounding grows by
the rule instances new facts enable, and atom-level counting and
delete-and-rederive touch only what a change reaches:

>>> from repro import KnowledgeBase
>>> kb = KnowledgeBase("wins(X) :- move(X, Y), not wins(Y).")
>>> kb.load({"move": [("a", "b"), ("b", "a"), ("b", "c")]})
3
>>> sorted(kb.query("wins"))
[('b',)]
"""

from .datalog import (
    Atom,
    Literal,
    Program,
    ProgramBuilder,
    Rule,
    atom,
    neg,
    parse_program,
    parse_rule,
    pos,
)
from .core import (
    AlternatingFixpointResult,
    afp_model,
    alternating_fixpoint,
    stable_models,
    well_founded_model,
)
from .config import DEFAULT_STRATEGY, EVALUATION_STRATEGIES, EngineConfig
from .engine import Solution, answers, ask, solve
from .fixpoint import PartialInterpretation, TruthValue
from .resilience import Budget, CancelToken
from .session import KnowledgeBase, ResultSet, UpdateStats
from .storage import FactStore, MemoryStore, SqliteStore, open_store

__version__ = "1.4.0"

__all__ = [
    "Atom",
    "Literal",
    "Program",
    "ProgramBuilder",
    "Rule",
    "atom",
    "neg",
    "parse_program",
    "parse_rule",
    "pos",
    "AlternatingFixpointResult",
    "afp_model",
    "alternating_fixpoint",
    "stable_models",
    "well_founded_model",
    "EngineConfig",
    "Budget",
    "CancelToken",
    "KnowledgeBase",
    "ResultSet",
    "UpdateStats",
    "Solution",
    "answers",
    "ask",
    "solve",
    "DEFAULT_STRATEGY",
    "EVALUATION_STRATEGIES",
    "PartialInterpretation",
    "TruthValue",
    "FactStore",
    "MemoryStore",
    "SqliteStore",
    "open_store",
    "__version__",
]
