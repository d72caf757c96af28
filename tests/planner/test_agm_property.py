"""Property-based tests for the AGM machinery on random queries."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.planner import (
    Hypergraph,
    agm_bound,
    fractional_cover,
    integral_cover_bound,
)


@st.composite
def random_hypergraphs(draw):
    """Connected-ish random hypergraphs with 2-5 edges over 2-6 vertices."""
    num_vertices = draw(st.integers(2, 6))
    vertices = [f"v{i}" for i in range(num_vertices)]
    num_edges = draw(st.integers(2, 5))
    edges = {}
    for e in range(num_edges):
        size = draw(st.integers(1, num_vertices))
        members = draw(st.permutations(vertices))[:size]
        edges[f"R{e}"] = list(members)
    # guarantee full coverage: one edge over everything
    edges["Rall"] = vertices
    sizes = {name: draw(st.integers(1, 10000)) for name in edges}
    return Hypergraph(vertices, edges), sizes


@settings(max_examples=60, deadline=None)
@given(data=random_hypergraphs())
def test_cover_is_feasible_and_bound_positive(data):
    graph, sizes = data
    cover = fractional_cover(graph, sizes)
    for vertex in graph.vertices:
        assert sum(cover.weights.get(edge, 0.0)
                   for edge in graph.edges_with(vertex)) >= 1 - 1e-9
    assert cover.bound >= 0


@settings(max_examples=60, deadline=None)
@given(data=random_hypergraphs())
def test_fractional_never_exceeds_integral(data):
    graph, sizes = data
    fractional = agm_bound(graph, sizes)
    integral = integral_cover_bound(graph, sizes)
    assert fractional <= integral * (1 + 1e-6)


@settings(max_examples=40, deadline=None)
@given(data=random_hypergraphs(), factor=st.integers(2, 10))
def test_bound_monotone_in_relation_sizes(data, factor):
    graph, sizes = data
    grown = {name: size * factor for name, size in sizes.items()}
    assert agm_bound(graph, grown) >= agm_bound(graph, sizes) - 1e-6


@settings(max_examples=40, deadline=None)
@given(data=random_hypergraphs())
def test_single_covering_edge_caps_bound(data):
    graph, sizes = data
    # Rall covers every vertex, so weight 1 on it alone is feasible:
    # the optimal bound can never exceed |Rall|
    assert agm_bound(graph, sizes) <= sizes["Rall"] * (1 + 1e-9)
