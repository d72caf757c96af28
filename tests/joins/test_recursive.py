"""Recursive Join (the paper's Alg. 1) tests."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import join
from repro.data import random_edge_relation, triangle_count_truth
from repro.joins import RecursiveJoin, resolve_relations
from repro.planner import cycle_query, parse_query
from repro.storage import Relation


class TestCorrectness:
    def test_triangles_match_oracle(self):
        edges = random_edge_relation(30, 170, seed=61)
        count = join("E1=E(a,b), E2=E(b,c), E3=E(c,a)",
                     {"E1": edges, "E2": edges, "E3": edges},
                     algorithm="recursive").count
        assert count == triangle_count_truth(edges)

    def test_pentagon_matches_generic(self):
        edges = random_edge_relation(18, 70, seed=62)
        query = cycle_query(5)
        source = {f"E{i}": edges for i in range(1, 6)}
        recursive = join(query, source, algorithm="recursive").count
        generic = join(query, source, algorithm="generic",
                       index="btree", engine="tuple").count
        assert recursive == generic

    def test_empty_inputs(self):
        empty = Relation("E", ("s", "d"), [])
        source = {"E1": empty, "E2": empty, "E3": empty}
        assert join("E1=E(a,b), E2=E(b,c), E3=E(c,a)", source,
                    algorithm="recursive").count == 0

    def test_covering_edge_base_case(self):
        wide = Relation("W", ("a", "b", "c"),
                        [(1, 2, 3), (1, 2, 4), (5, 6, 7)])
        narrow = Relation("N", ("a", "b"), [(1, 2)])
        count = join("W(a,b,c), N(a,b)", {"W": wide, "N": narrow},
                     algorithm="recursive").count
        assert count == 2  # (1,2,3) and (1,2,4)

    def test_metrics_and_cover_weights(self):
        edges = random_edge_relation(20, 90, seed=63)
        query = parse_query("E1=E(a,b), E2=E(b,c), E3=E(c,a)")
        relations = resolve_relations(query, {"E1": edges, "E2": edges,
                                              "E3": edges})
        driver = RecursiveJoin(query, relations)
        # triangle cover: all weights 1/2 -> the line-10 branch is live
        assert all(abs(w - 0.5) < 1e-6 for w in driver._weights.values())
        result = driver.run()
        assert driver.metrics.lookups > 0
        assert result.count == triangle_count_truth(edges)


@settings(max_examples=15, deadline=None)
@given(
    r_rows=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)),
                    min_size=0, max_size=25),
    s_rows=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)),
                    min_size=0, max_size=25),
    t_rows=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)),
                    min_size=0, max_size=25),
)
def test_property_recursive_equals_truth(r_rows, s_rows, t_rows):
    r = Relation("R", ("a", "b"), set(r_rows))
    s = Relation("S", ("b", "c"), set(s_rows))
    t = Relation("T", ("c", "a"), set(t_rows))
    truth = sorted(
        (a, b, c)
        for (a, b) in set(r_rows)
        for (b2, c) in set(s_rows) if b2 == b
        for (c2, a2) in set(t_rows) if c2 == c and a2 == a
    )
    result = join("R(a,b), S(b,c), T(c,a)", {"R": r, "S": s, "T": t},
                  algorithm="recursive", materialize=True)
    positions = [result.attributes.index(x) for x in ("a", "b", "c")]
    got = sorted(tuple(row[p] for p in positions) for row in result.rows)
    assert got == truth
