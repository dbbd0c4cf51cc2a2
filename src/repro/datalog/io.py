"""Program and model input/output.

A deductive-database library needs to read programs from files, load EDB
relations from delimited text, and save computed models in a structured
form.  This module provides exactly that, with no dependencies beyond the
standard library:

* :func:`load_program` / :func:`save_program` — rule files in the textual
  syntax of :mod:`repro.datalog.parser` (comments preserved as written on
  load in the sense that they are simply ignored);
* :func:`load_facts_csv` / :func:`save_facts_csv` — one relation per file,
  one tuple per line, comma-separated; both stream through any
  :class:`~repro.storage.FactStore` backend (so a CSV can be bulk-loaded
  straight into a durable :class:`~repro.storage.SqliteStore`);
* :func:`interpretation_to_dict` / :func:`interpretation_from_dict` and the
  JSON wrappers — a stable, documented serialisation of partial
  interpretations (true / false / optionally undefined atom lists), used by
  the CLI to emit machine-readable results.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Iterable, Mapping, Optional, Sequence

from ..exceptions import ParseError
from ..fixpoint.interpretations import PartialInterpretation
from ..storage.base import FactStore
from ..storage.memory import MemoryStore
from .atoms import Atom
from .parser import parse_atom, parse_program
from .rules import Program

__all__ = [
    "load_program",
    "save_program",
    "load_facts_csv",
    "save_facts_csv",
    "interpretation_to_dict",
    "interpretation_from_dict",
    "save_interpretation_json",
    "load_interpretation_json",
]


# --------------------------------------------------------------------- #
# Programs
# --------------------------------------------------------------------- #
def load_program(path: str | Path) -> Program:
    """Parse the rule file at *path* into a :class:`Program`."""
    text = Path(path).read_text(encoding="utf-8")
    return parse_program(text)


def save_program(program: Program, path: str | Path, header: Optional[str] = None) -> None:
    """Write *program* in the standard textual syntax.

    ``header`` (if given) is written as a leading comment block.
    """
    lines: list[str] = []
    if header:
        lines.extend(f"% {line}" for line in header.splitlines())
        lines.append("")
    lines.extend(str(rule) for rule in program)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# --------------------------------------------------------------------- #
# EDB relations as CSV
# --------------------------------------------------------------------- #
def load_facts_csv(
    path: str | Path,
    relation: str,
    store: Optional[FactStore] = None,
    numeric: bool = True,
) -> FactStore:
    """Load one relation from a comma-separated file into a fact store.

    Each row becomes one tuple of the relation; with ``numeric`` (default)
    cells that look like integers are stored as integers, everything else as
    strings.  Appends to *store* when given — any
    :class:`~repro.storage.FactStore` backend, which the rows stream into
    one at a time (no intermediate materialisation, so a larger-than-memory
    CSV can flow straight into a durable store) — otherwise creates and
    returns a new :class:`~repro.storage.MemoryStore`.
    """
    store = store if store is not None else MemoryStore()
    with open(path, newline="", encoding="utf-8") as handle:
        for row in csv.reader(handle):
            if not row or all(not cell.strip() for cell in row):
                continue
            values = [_coerce(cell.strip(), numeric) for cell in row]
            store.add(relation, *values)
    return store


def save_facts_csv(store: FactStore, relation: str, path: str | Path) -> None:
    """Write one relation of a :class:`~repro.storage.FactStore` as a
    comma-separated file with LF line ends, so an LF file loaded with
    :func:`load_facts_csv` saves back byte for byte."""
    rows = sorted(store.values(relation), key=lambda row: tuple(str(v) for v in row))
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        for row in rows:
            writer.writerow(row)


def _coerce(cell: str, numeric: bool) -> object:
    if numeric:
        try:
            return int(cell)
        except ValueError:
            pass
    return cell


# --------------------------------------------------------------------- #
# Interpretations as JSON
# --------------------------------------------------------------------- #
def interpretation_to_dict(
    interpretation: PartialInterpretation,
    base: Optional[Iterable[Atom]] = None,
) -> dict:
    """A JSON-friendly view of a partial interpretation.

    ``{"true": [...], "false": [...], "undefined": [...]}`` with atoms in
    their textual form; the ``undefined`` list is present only when *base*
    is supplied.
    """
    payload: dict = {
        "true": sorted(str(a) for a in interpretation.true_atoms),
        "false": sorted(str(a) for a in interpretation.false_atoms),
    }
    if base is not None:
        payload["undefined"] = sorted(
            str(a) for a in interpretation.undefined_atoms(frozenset(base))
        )
    return payload


def interpretation_from_dict(payload: Mapping) -> PartialInterpretation:
    """Rebuild a partial interpretation from :func:`interpretation_to_dict`
    output (the ``undefined`` list, if present, is ignored — undefinedness
    is the absence of information)."""
    try:
        true_atoms = [parse_atom(text) for text in payload.get("true", [])]
        false_atoms = [parse_atom(text) for text in payload.get("false", [])]
    except ParseError as error:
        raise ParseError(f"malformed interpretation payload: {error}") from error
    return PartialInterpretation(true_atoms, false_atoms)


def save_interpretation_json(
    interpretation: PartialInterpretation,
    path: str | Path,
    base: Optional[Iterable[Atom]] = None,
    metadata: Optional[Mapping] = None,
) -> None:
    """Write an interpretation (plus optional metadata) as JSON."""
    payload = interpretation_to_dict(interpretation, base)
    if metadata:
        payload["metadata"] = dict(metadata)
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True), encoding="utf-8")


def load_interpretation_json(path: str | Path) -> PartialInterpretation:
    """Read an interpretation previously written by
    :func:`save_interpretation_json`."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    return interpretation_from_dict(payload)
