"""Hypergraph tests."""

import pytest

from repro.errors import QueryError
from repro.planner import Hypergraph, parse_query


@pytest.fixture
def triangle():
    return Hypergraph.from_query(parse_query("R(a,b), S(b,c), T(c,a)"))


class TestConstruction:
    def test_from_query(self, triangle):
        assert set(triangle.vertices) == {"a", "b", "c"}
        assert triangle.edges["R"] == frozenset({"a", "b"})

    def test_uncovered_vertex_rejected(self):
        with pytest.raises(QueryError):
            Hypergraph(["a", "b"], {"R": ["a"]})

    def test_unknown_vertex_in_edge_rejected(self):
        with pytest.raises(QueryError):
            Hypergraph(["a"], {"R": ["a", "zz"]})


class TestStructure:
    def test_edges_with(self, triangle):
        assert sorted(triangle.edges_with("a")) == ["R", "T"]
        assert triangle.degree("b") == 2

    def test_is_edge_cover(self, triangle):
        assert triangle.is_edge_cover(["R", "S"])
        assert triangle.is_edge_cover(["R", "S", "T"])
        assert not triangle.is_edge_cover(["R"])

    def test_connected(self, triangle):
        assert triangle.is_connected()
        split = Hypergraph(["a", "b", "x", "y"],
                           {"R": ["a", "b"], "S": ["x", "y"]})
        assert not split.is_connected()
