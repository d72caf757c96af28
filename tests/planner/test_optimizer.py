"""Join ordering and the hybrid binary/WCOJ chooser."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.planner import (
    HybridOptimizer,
    Hypergraph,
    Statistics,
    cycle_query,
    greedy_join_order,
    is_alpha_acyclic,
    parse_query,
)
from repro.planner.optimizer import cyclic_core
from repro.storage import Relation

SRC = Path(__file__).resolve().parents[2] / "src"


def make_stats(sizes: dict[str, int], arities: dict[str, tuple]):
    relations = []
    for name, size in sizes.items():
        attrs = arities[name]
        rows = [tuple((i + j) % max(size, 1) for j in range(len(attrs)))
                for i in range(size)]
        relations.append(Relation(name, attrs, set(rows)))
    return Statistics.collect(relations)


class TestGreedyOrder:
    def test_starts_with_smallest(self):
        query = parse_query("R(a,b), S(b,c), T(c,d)")
        stats = make_stats({"R": 1000, "S": 10, "T": 500},
                           {"R": ("a", "b"), "S": ("b", "c"), "T": ("c", "d")})
        order = greedy_join_order(query, stats)
        assert order[0] == "S"
        assert sorted(order) == ["R", "S", "T"]

    def test_prefers_connected_extensions(self):
        query = parse_query("R(a,b), S(b,c), T(x,y), U(c,x)")
        stats = make_stats(
            {"R": 10, "S": 100, "T": 5, "U": 100},
            {"R": ("a", "b"), "S": ("b", "c"), "T": ("x", "y"),
             "U": ("c", "x")})
        order = greedy_join_order(query, stats)
        # the query is connected, so every step after the first must share
        # an attribute with what is already bound (no cross products)
        bound = set(query.attributes_of(order[0]))
        for alias in order[1:]:
            attrs = set(query.attributes_of(alias))
            assert attrs & bound, (order, alias)
            bound |= attrs


TIED_SELF_JOIN = """
from repro import Relation, join
edges = Relation("E", ("src", "dst"), [(i, (i + 1) % 7) for i in range(7)])
query = "E1=E(a,b), E2=E(b,c), E3=E(c,d), E4=E(d,e)"
tables = {alias: edges for alias in ("E1", "E2", "E3", "E4")}
print(",".join(join(query, tables, algorithm="binary",
                    profile=True).profile.order))
"""


@pytest.mark.slow
def test_tied_self_join_order_ignores_the_hash_seed():
    # every atom of a self-join has the same size: the leading atom must
    # not follow the iteration order of a set of strings
    orders = set()
    for seed in ("1", "2", "3", "4"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(SRC))
        done = subprocess.run([sys.executable, "-c", TIED_SELF_JOIN],
                              env=env, capture_output=True, text=True,
                              timeout=120, check=True)
        orders.add(done.stdout.strip())
    assert orders == {"E1,E2,E3,E4"}


class TestAcyclicity:
    @pytest.mark.parametrize("text, acyclic", [
        ("R(a,b), S(b,c), T(c,a)", False),
        ("R(a,b), S(b,c), T(c,d)", True),
        ("F(t,x), A(t,p), B(t,k), C(t,m)", True),
        ("R(a,b,c), S(a,b)", True),
        ("R(a,b)", True),
        ("R(a,b), S(b,c), T(c,a), U(a,d)", False),
    ])
    def test_acyclic_is_an_empty_cyclic_core(self, text, acyclic):
        graph = Hypergraph.from_query(parse_query(text))
        assert is_alpha_acyclic(graph) == (not cyclic_core(graph)) == acyclic
        for n in (3, 4, 5):
            cycle = Hypergraph.from_query(cycle_query(n))
            assert not is_alpha_acyclic(cycle)
            assert cyclic_core(cycle) == set(cycle.edges)

    def test_triangle_is_cyclic(self):
        graph = Hypergraph.from_query(cycle_query(3))
        assert not is_alpha_acyclic(graph)

    def test_chain_is_acyclic(self):
        graph = Hypergraph.from_query(parse_query("R(a,b), S(b,c), T(c,d)"))
        assert is_alpha_acyclic(graph)

    def test_star_is_acyclic(self):
        graph = Hypergraph.from_query(
            parse_query("F(t,x), A(t,p), B(t,k), C(t,m)"))
        assert is_alpha_acyclic(graph)

    def test_contained_edge_is_ear(self):
        graph = Hypergraph.from_query(parse_query("R(a,b,c), S(a,b)"))
        assert is_alpha_acyclic(graph)

    def test_five_cycle_is_cyclic(self):
        graph = Hypergraph.from_query(cycle_query(5))
        assert not is_alpha_acyclic(graph)


class TestHybridOptimizer:
    def test_cyclic_query_goes_wcoj(self):
        query = cycle_query(3)
        stats = make_stats({f"E{i}": 100 for i in (1, 2, 3)},
                           {"E1": ("v0", "v1"), "E2": ("v1", "v2"),
                            "E3": ("v2", "v0")})
        choice = HybridOptimizer().choose(query, stats)
        assert choice.algorithm == "wcoj"
        assert "cyclic" in choice.reason

    def test_star_query_goes_binary(self):
        query = parse_query("F(t,x), A(t,p), B(t,k)")
        stats = make_stats({"F": 100, "A": 100, "B": 100},
                           {"F": ("t", "x"), "A": ("t", "p"), "B": ("t", "k")})
        choice = HybridOptimizer().choose(query, stats)
        assert choice.algorithm == "binary"

    def test_single_atom_is_a_scan(self):
        query = parse_query("R(a,b)")
        stats = make_stats({"R": 10}, {"R": ("a", "b")})
        assert HybridOptimizer().choose(query, stats).algorithm == "binary"

    def test_estimates_are_skipped_only_where_nothing_reads_them(self):
        sizes = {f"E{i}": 100 for i in (1, 2, 3)}
        cyclic = make_stats(sizes, {"E1": ("v0", "v1"), "E2": ("v1", "v2"),
                                    "E3": ("v2", "v0")})
        choice = HybridOptimizer().choose(cycle_query(3), cyclic,
                                          estimate=False)
        assert choice.algorithm == "wcoj"
        assert choice.agm_bound is None and choice.binary_estimate is None
        # an acyclic query's decision *is* the comparison of the two
        star = parse_query("F(t,x), A(t,p), B(t,k)")
        stats = make_stats({"F": 100, "A": 100, "B": 100},
                           {"F": ("t", "x"), "A": ("t", "p"), "B": ("t", "k")})
        choice = HybridOptimizer().choose(star, stats, estimate=False)
        assert choice.algorithm == "binary"
        assert choice.agm_bound > 0 and choice.binary_estimate > 0

    def test_choice_carries_bounds(self):
        query = cycle_query(3)
        stats = make_stats({f"E{i}": 100 for i in (1, 2, 3)},
                           {"E1": ("v0", "v1"), "E2": ("v1", "v2"),
                            "E3": ("v2", "v0")})
        choice = HybridOptimizer().choose(query, stats)
        assert choice.agm_bound > 0
        assert choice.binary_estimate > 0
