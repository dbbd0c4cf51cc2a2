"""Unit tests for program / facts / model I/O."""

import json

import pytest

from repro.datalog.atoms import atom, ground_atom
from repro.datalog.io import (
    interpretation_from_dict,
    interpretation_to_dict,
    load_facts_csv,
    load_interpretation_json,
    load_program,
    save_facts_csv,
    save_interpretation_json,
    save_program,
)
from repro.datalog.parser import parse_program
from repro.exceptions import ParseError
from repro.fixpoint.interpretations import PartialInterpretation
from repro.storage import MemoryStore, SqliteStore

PROGRAM_TEXT = """
edge(1, 2). edge(2, 3).
tc(X, Y) :- edge(X, Y).
tc(X, Y) :- edge(X, Z), tc(Z, Y).
"""


class TestProgramFiles:
    def test_round_trip(self, tmp_path):
        program = parse_program(PROGRAM_TEXT)
        path = tmp_path / "tc.lp"
        save_program(program, path, header="transitive closure\nexample")
        loaded = load_program(path)
        assert loaded == program
        assert path.read_text().startswith("% transitive closure")

    def test_round_trip_keeps_string_constants(self, tmp_path):
        program = parse_program('knows("Alice", "a b"). knows(bob, "12"). p(X) :- knows(X, "not").')
        path = tmp_path / "people.lp"
        save_program(program, path)
        assert load_program(path).rules == program.rules

    def test_load_reports_parse_errors(self, tmp_path):
        path = tmp_path / "bad.lp"
        path.write_text("p :- q", encoding="utf-8")  # missing final dot
        with pytest.raises(ParseError):
            load_program(path)


class TestFactsCsv:
    def test_round_trip(self, tmp_path):
        store = MemoryStore()
        store.load({"edge": [(1, 2), (2, 3), ("x", "y")]})
        path = tmp_path / "edge.csv"
        save_facts_csv(store, "edge", path)
        loaded = load_facts_csv(path, "edge")
        assert isinstance(loaded, MemoryStore)
        assert loaded.values("edge") == {(1, 2), (2, 3), ("x", "y")}
        # A hand-written LF file saves back byte for byte; CRLF still loads.
        source = tmp_path / "source.csv"
        source.write_bytes(b"a,b\nb,c\n")
        saved = tmp_path / "saved.csv"
        save_facts_csv(load_facts_csv(source, "edge"), "edge", saved)
        assert saved.read_bytes() == source.read_bytes()
        crlf = tmp_path / "crlf.csv"
        crlf.write_bytes(b"a,b\r\nb,c\r\n")
        assert load_facts_csv(crlf, "edge").values("edge") == {("a", "b"), ("b", "c")}

    def test_numeric_coercion_can_be_disabled(self, tmp_path):
        path = tmp_path / "edge.csv"
        path.write_text("1,2\n", encoding="utf-8")
        loaded = load_facts_csv(path, "edge", numeric=False)
        assert loaded.values("edge") == {("1", "2")}

    def test_blank_lines_skipped_and_append(self, tmp_path):
        path = tmp_path / "edge.csv"
        path.write_text("1,2\n\n3,4\n", encoding="utf-8")
        store = MemoryStore()
        store.load({"node": [(9,)]})
        loaded = load_facts_csv(path, "edge", store)
        assert loaded is store
        assert loaded.count("edge", 2) == 2
        assert loaded.contains("node", 9)

    def test_round_trip_through_fact_stores(self, tmp_path):
        """CSV load/save streams through any FactStore backend, and both
        backends plus the default container land on identical contents."""
        rows = {(1, 2), (2, 3), ("x", "y")}
        source = tmp_path / "edge.csv"
        written = MemoryStore()
        written.load({"edge": sorted(rows, key=str)})
        save_facts_csv(written, "edge", source)

        memory = load_facts_csv(source, "edge", MemoryStore())
        durable = load_facts_csv(source, "edge", SqliteStore(tmp_path / "edge.db"))
        default = load_facts_csv(source, "edge")
        assert memory.values("edge") == durable.values("edge") == default.values("edge") == rows

        # Saving back out of each container produces the identical file.
        outputs = []
        for index, container in enumerate((memory, durable, default)):
            out = tmp_path / f"out{index}.csv"
            save_facts_csv(container, "edge", out)
            outputs.append(out.read_text(encoding="utf-8"))
        assert outputs[0] == outputs[1] == outputs[2]
        durable.close()


class TestInterpretationSerialisation:
    def test_dict_round_trip(self):
        interpretation = PartialInterpretation([atom("tc", 1, 2)], [atom("tc", 2, 1)])
        payload = interpretation_to_dict(interpretation)
        rebuilt = interpretation_from_dict(payload)
        assert rebuilt.true_atoms == interpretation.true_atoms
        assert rebuilt.false_atoms == interpretation.false_atoms

    def test_dict_round_trip_keeps_string_constants(self):
        interpretation = PartialInterpretation(
            [ground_atom("knows", "Alice", "a b")], [ground_atom("knows", "12", "not")]
        )
        rebuilt = interpretation_from_dict(interpretation_to_dict(interpretation))
        assert rebuilt.true_atoms == interpretation.true_atoms
        assert rebuilt.false_atoms == interpretation.false_atoms

    def test_undefined_listed_only_with_base(self):
        interpretation = PartialInterpretation([atom("p")], [])
        without_base = interpretation_to_dict(interpretation)
        assert "undefined" not in without_base
        with_base = interpretation_to_dict(interpretation, base=[atom("p"), atom("q")])
        assert with_base["undefined"] == ["q"]

    def test_json_round_trip_with_metadata(self, tmp_path):
        interpretation = PartialInterpretation([atom("wins", "c")], [atom("wins", "d")])
        path = tmp_path / "model.json"
        save_interpretation_json(
            interpretation, path, base=[atom("wins", "a"), atom("wins", "c"), atom("wins", "d")],
            metadata={"semantics": "well-founded"},
        )
        payload = json.loads(path.read_text())
        assert payload["metadata"]["semantics"] == "well-founded"
        assert payload["undefined"] == ["wins(a)"]
        loaded = load_interpretation_json(path)
        assert loaded.true_atoms == interpretation.true_atoms

    def test_malformed_payload_rejected(self):
        with pytest.raises(ParseError):
            interpretation_from_dict({"true": ["Not An Atom ("]})
