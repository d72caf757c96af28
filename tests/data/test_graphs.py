"""Graph generator and oracle tests."""

import networkx as nx
import pytest

from repro.data import (
    cycle_count_truth,
    edges_relation,
    powerlaw_cluster_graph,
    random_edge_relation,
    triangle_count_truth,
)
from repro.errors import ConfigurationError
from repro.storage import Relation


class TestEdgesRelation:
    def test_undirected_symmetrized(self):
        graph = nx.gnp_random_graph(30, 0.2, seed=1)
        relation = edges_relation(graph)
        present = set(relation.rows)
        for src, dst in present:
            assert (dst, src) in present

    def test_directed_not_symmetrized(self):
        graph = nx.gnp_random_graph(30, 0.1, seed=2, directed=True)
        relation = edges_relation(graph)
        assert len(relation) == sum(1 for u, v in graph.edges() if u != v)

    def test_self_loops_dropped(self):
        graph = nx.DiGraph([(1, 1), (1, 2)])
        relation = edges_relation(graph)
        assert (1, 1) not in relation.rows
        assert (1, 2) in relation.rows


class TestGenerators:
    def test_powerlaw_cluster_has_triangles(self):
        graph = powerlaw_cluster_graph(200, 5, 0.5, seed=4)
        relation = edges_relation(graph)
        assert triangle_count_truth(relation) > 0

    def test_random_edge_relation_size(self):
        relation = random_edge_relation(50, 300, seed=5)
        assert relation.arity == 2
        assert 250 <= len(relation) <= 300  # self-loops removed


class TestOracles:
    def test_known_triangle(self):
        relation = Relation("E", ("s", "d"), [(0, 1), (1, 2), (2, 0)])
        assert triangle_count_truth(relation) == 3  # three rotations

    def test_symmetric_triangle_counted_six_times(self):
        rows = [(0, 1), (1, 0), (1, 2), (2, 1), (2, 0), (0, 2)]
        relation = Relation("E", ("s", "d"), rows)
        assert triangle_count_truth(relation) == 6

    def test_no_triangles_in_dag_chain(self):
        relation = Relation("E", ("s", "d"), [(0, 1), (1, 2), (2, 3)])
        assert triangle_count_truth(relation) == 0

    def test_cycle_truth_matches_triangle_truth(self):
        relation = random_edge_relation(25, 120, seed=6)
        assert cycle_count_truth(relation, 3) == triangle_count_truth(relation)

    def test_square_count(self):
        relation = Relation("E", ("s", "d"), [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert cycle_count_truth(relation, 4) == 4  # four rotations

    def test_cycle_length_validated(self):
        relation = Relation("E", ("s", "d"), [(0, 1)])
        with pytest.raises(ConfigurationError):
            cycle_count_truth(relation, 1)
