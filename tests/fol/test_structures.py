"""Unit tests for finite structures: their EDB is a FactStore."""

from repro.datalog.atoms import atom
from repro.fol.structures import FiniteStructure
from repro.storage import MemoryStore, SqliteStore


class TestFiniteStructureEdb:
    def test_from_relations_fills_a_memory_store(self):
        structure = FiniteStructure.from_relations([1, 2, 3], {"e": [(1, 2), (2, 3)], "v": [(1,)]})
        assert isinstance(structure.edb, MemoryStore)
        assert structure.edb_predicates() == {"e", "v"}
        assert structure.edb_atoms() == {atom("e", 1, 2), atom("e", 2, 3), atom("v", 1)}
        assert structure.edb_holds(atom("e", 1, 2))
        assert not structure.edb_holds(atom("e", 2, 1))
        assert FiniteStructure([1]).edb_predicates() == set()

    def test_any_store_backs_a_structure(self):
        with SqliteStore(":memory:") as store:
            store.load({"e": [(1, 2)]})
            structure = FiniteStructure([1, 2], store)
            assert structure.edb is store
            assert structure.edb_predicates() == {"e"}
            assert structure.edb_holds(atom("e", 1, 2))
