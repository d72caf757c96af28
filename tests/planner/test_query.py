"""Query model and parser tests."""

import pytest

from repro.errors import QueryError
from repro.planner import JoinQuery, clique_query, cycle_query, parse_query
from repro.planner.query import Atom


class TestAtom:
    def test_basic(self):
        atom = Atom("R", ("a", "b"))
        assert atom.alias == "R"
        assert atom.arity == 2

    def test_alias(self):
        atom = Atom("E", ("a", "b"), alias="E1")
        assert str(atom) == "E1=E(a, b)"

    def test_no_attributes_rejected(self):
        with pytest.raises(QueryError):
            Atom("R", ())

    def test_repeated_attribute_rejected(self):
        with pytest.raises(QueryError):
            Atom("R", ("a", "a"))


class TestJoinQuery:
    def test_attribute_order_is_first_appearance(self):
        query = JoinQuery([Atom("R", ("b", "a")), Atom("S", ("a", "c"))])
        assert query.attributes == ("b", "a", "c")

    def test_duplicate_aliases_rejected(self):
        with pytest.raises(QueryError):
            JoinQuery([Atom("R", ("a",)), Atom("R", ("b",))])

    def test_empty_query_rejected(self):
        with pytest.raises(QueryError):
            JoinQuery([])

    def test_atoms_with(self):
        query = parse_query("R(a,b), S(b,c), T(c,a)")
        assert [a.alias for a in query.atoms_with("b")] == ["R", "S"]


class TestParser:
    def test_simple(self):
        query = parse_query("R(a, b), S(b, c)")
        assert len(query) == 2
        assert query.atoms[0].attributes == ("a", "b")

    def test_aliases(self):
        query = parse_query("E1=E(a,b), E2=E(b,c)")
        assert query.atoms[0].relation == "E"
        assert query.atoms[0].alias == "E1"

    def test_garbage_rejected(self):
        with pytest.raises(QueryError):
            parse_query("not a query")
        with pytest.raises(QueryError):
            parse_query("R(a,b")
        with pytest.raises(QueryError):
            parse_query("")


class TestQueryBuilders:
    def test_triangle(self):
        query = cycle_query(3)
        assert len(query) == 3
        assert query.attributes == ("v0", "v1", "v2")
        # each consecutive pair shares exactly one attribute
        for left, right in zip(query.atoms, query.atoms[1:]):
            shared = set(left.attributes) & set(right.attributes)
            assert len(shared) == 1

    def test_pentagon(self):
        query = cycle_query(5)
        assert len(query) == 5
        assert len(query.attributes) == 5

    def test_cycle_too_short(self):
        with pytest.raises(QueryError):
            cycle_query(1)

    def test_clique(self):
        query = clique_query(4)
        assert len(query) == 6  # C(4,2)
        assert len(query.attributes) == 4
