"""Catalog tests."""

import pytest

from repro.errors import SchemaError
from repro.storage import Relation
from repro.storage.catalog import Catalog


@pytest.fixture
def catalog():
    return Catalog([
        Relation("R", ("a", "b"), [(1, 2)]),
        Relation("S", ("b", "c"), [(2, 3), (2, 4)]),
    ])


class TestCatalog:
    def test_lookup(self, catalog):
        assert catalog.get("R").name == "R"
        assert catalog["S"].name == "S"
        assert "R" in catalog
        assert "Z" not in catalog

    def test_missing_raises_with_hint(self, catalog):
        with pytest.raises(SchemaError, match="have:"):
            catalog.get("Z")

    def test_duplicate_add_rejected(self, catalog):
        with pytest.raises(SchemaError):
            catalog.add(Relation("R", ("x",), []))

    def test_replace(self, catalog):
        catalog.add(Relation("R", ("x",), [(9,)]), replace=True)
        assert catalog.get("R").schema.attributes == ("x",)

    def test_stats(self, catalog):
        assert catalog.cardinalities() == {"R": 1, "S": 2}
        assert catalog.total_rows() == 3
        assert catalog.names == ["R", "S"]
        assert len(catalog) == 2
