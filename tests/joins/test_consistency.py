"""Cross-algorithm / cross-index consistency: the strongest correctness net.

Every join driver and every prefix-capable index must produce the same
result set on the same query — including property-based random inputs.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import join, parse_query
from repro.indexes.registry import prefix_capable_indexes
from repro.storage import Relation

ALGORITHMS = ("generic", "binary", "hashtrie", "leapfrog")


def normalize(result, attributes):
    positions = [result.attributes.index(a) for a in attributes]
    return sorted(tuple(row[p] for p in positions) for row in result.rows)


class TestAlgorithmsAgree:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_triangle_materialized(self, seed):
        rng = random.Random(seed)
        edges = Relation("E", ("s", "d"),
                         {(rng.randrange(20), rng.randrange(20))
                          for _ in range(120)})
        source = {"E1": edges, "E2": edges, "E3": edges}
        query = "E1=E(a,b), E2=E(b,c), E3=E(c,a)"
        outputs = {}
        for algorithm in ALGORITHMS:
            result = join(query, source, algorithm=algorithm, materialize=True)
            outputs[algorithm] = normalize(result, ("a", "b", "c"))
        reference = outputs["binary"]
        for algorithm, rows in outputs.items():
            assert rows == reference, algorithm

    @pytest.mark.parametrize("seed", [4, 5])
    def test_four_atom_mixed_arity(self, seed):
        rng = random.Random(seed)
        r = Relation("R", ("a", "b"),
                     {(rng.randrange(10), rng.randrange(10)) for _ in range(50)})
        s = Relation("S", ("b", "c", "d"),
                     {(rng.randrange(10), rng.randrange(10), rng.randrange(10))
                      for _ in range(80)})
        t = Relation("T", ("d", "e"),
                     {(rng.randrange(10), rng.randrange(10)) for _ in range(50)})
        u = Relation("U", ("e", "a"),
                     {(rng.randrange(10), rng.randrange(10)) for _ in range(50)})
        query = "R(a,b), S(b,c,d), T(d,e), U(e,a)"
        source = {"R": r, "S": s, "T": t, "U": u}
        outputs = [normalize(join(query, source, algorithm=a, materialize=True),
                             ("a", "b", "c", "d", "e"))
                   for a in ALGORITHMS]
        assert all(rows == outputs[0] for rows in outputs)


class TestIndexesAgreeUnderGenericJoin:
    def test_all_prefix_indexes_same_triangles(self):
        rng = random.Random(6)
        edges = Relation("E", ("s", "d"),
                         {(rng.randrange(18), rng.randrange(18))
                          for _ in range(110)})
        source = {"E1": edges, "E2": edges, "E3": edges}
        query = "E1=E(a,b), E2=E(b,c), E3=E(c,a)"
        counts = {name: join(query, source, index=name,
                             engine="tuple").count
                  for name in prefix_capable_indexes()}
        assert len(set(counts.values())) == 1, counts


@settings(max_examples=20, deadline=None)
@given(
    r_rows=st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)),
                    min_size=0, max_size=40),
    s_rows=st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)),
                    min_size=0, max_size=40),
    t_rows=st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)),
                    min_size=0, max_size=40),
)
def test_property_triangle_equivalence(r_rows, s_rows, t_rows):
    r = Relation("R", ("a", "b"), set(r_rows))
    s = Relation("S", ("b", "c"), set(s_rows))
    t = Relation("T", ("c", "a"), set(t_rows))
    truth = sorted(
        (a, b, c)
        for (a, b) in set(r_rows)
        for (b2, c) in set(s_rows) if b2 == b
        for (c2, a2) in set(t_rows) if c2 == c and a2 == a
    )
    source = {"R": r, "S": s, "T": t}
    for algorithm in ALGORITHMS:
        result = join("R(a,b), S(b,c), T(c,a)", source,
                      algorithm=algorithm, materialize=True)
        assert normalize(result, ("a", "b", "c")) == truth, algorithm


@settings(max_examples=15, deadline=None)
@given(
    rows=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)),
                  min_size=0, max_size=30),
)
def test_property_self_join_square(rows):
    edges = Relation("E", ("s", "d"), set(rows))
    present = set(rows)
    truth_count = sum(
        1
        for (a, b) in present
        for (b2, c) in present if b2 == b
        for (c2, d) in present if c2 == c
        if (d, a) in present
    )
    source = {"E1": edges, "E2": edges, "E3": edges, "E4": edges}
    query = "E1=E(a,b), E2=E(b,c), E3=E(c,d), E4=E(d,a)"
    for algorithm in ALGORITHMS:
        assert join(query, source, algorithm=algorithm).count == truth_count
