"""Pluggable fact storage: one :class:`FactStore` protocol, two backends.

The protocol (:mod:`repro.storage.base`) is where EDB facts live: what
a grounding run reads once, what :func:`repro.engine.solver.solve` takes
(``store=``) and what a :class:`repro.session.KnowledgeBase` mutates; the
backends are :class:`MemoryStore` (in-process, the default) and
:class:`SqliteStore` (durable, stdlib ``sqlite3``).

Stores are named by *spec strings* — ``"memory"`` or ``"sqlite:PATH"`` —
which is the value the ``store`` dimension of
:class:`repro.config.EngineConfig` and the CLI's ``--store`` option carry;
:func:`open_store` turns a spec into a live backend.
"""

from __future__ import annotations

from ..exceptions import StorageError
from .base import ChangeListener, FactStore
from .memory import MemoryStore
from .sqlite import SqliteStore

__all__ = [
    "FactStore",
    "ChangeListener",
    "MemoryStore",
    "SqliteStore",
    "SUPPORTED_STORES",
    "DEFAULT_STORE",
    "parse_store_spec",
    "open_store",
]

#: Backend kinds accepted in store specs.
SUPPORTED_STORES = ("memory", "sqlite")
DEFAULT_STORE = "memory"


def parse_store_spec(spec: str) -> tuple[str, str | None]:
    """Split a store spec into ``(kind, argument)``, validating it.

    ``"memory"`` → ``("memory", None)``; ``"sqlite:PATH"`` →
    ``("sqlite", "PATH")``.  Raises :class:`StorageError` on anything else,
    listing the accepted shapes.
    """
    if not isinstance(spec, str):
        raise StorageError(f"store spec must be a string, got {spec!r}")
    kind, _, argument = spec.partition(":")
    if kind == "memory":
        if argument:
            raise StorageError(f"the 'memory' store takes no argument, got {spec!r}")
        return ("memory", None)
    if kind == "sqlite":
        if not argument:
            raise StorageError(
                f"the 'sqlite' store needs a path, e.g. 'sqlite:kb.db'; got {spec!r}"
            )
        return ("sqlite", argument)
    raise StorageError(
        f"unknown store spec {spec!r}; expected 'memory' or 'sqlite:PATH'"
    )


def open_store(spec: str) -> FactStore:
    """Create the backend a spec names: ``"memory"`` or ``"sqlite:PATH"``."""
    kind, argument = parse_store_spec(spec)
    if kind == "memory":
        return MemoryStore()
    return SqliteStore(argument)
