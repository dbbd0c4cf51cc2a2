"""High-level deductive-database engine: one-call solving and querying."""

from .query import QueryAnswer, answers, ask
from .solver import Solution, solve

__all__ = [
    "QueryAnswer",
    "answers",
    "ask",
    "Solution",
    "solve",
]
