"""Graph workloads for the cycle-counting experiments (§5.14, Fig 14).

The paper evaluates cycle counting (triangles, rectangles, pentagons) over
two-column edge relations.  These generators produce edge relations from
standard random-graph models (via :mod:`networkx`, imported by the
generator that is called, not with the package), with the symmetrized
form the cycle queries expect (an undirected edge stored in both
directions), and helpers to compute ground-truth triangle counts for test
oracles.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.storage.relation import Relation


def edges_relation(graph: nx.Graph, name: str = "E",
                   symmetric: bool | None = None) -> Relation:
    """An edge relation ``name(src, dst)`` from a networkx graph.

    Undirected graphs are symmetrized by default (each edge stored both
    ways) so that directed cycle queries count each undirected cycle a
    fixed number of times; self-loops are dropped (they make every cycle
    query degenerate).
    """
    if symmetric is None:
        symmetric = not graph.is_directed()
    rows: set[tuple] = set()
    for u, v in graph.edges():
        if u == v:
            continue
        rows.add((u, v))
        if symmetric:
            rows.add((v, u))
    return Relation(name, ("src", "dst"), rows)


def barabasi_albert_graph(nodes: int, attached_edges: int = 5,
                          seed: int = 0) -> nx.Graph:
    """Scale-free graph (preferential attachment): heavy-tailed degrees."""
    if nodes <= attached_edges:
        raise ConfigurationError("nodes must exceed attached_edges")
    import networkx as nx

    return nx.barabasi_albert_graph(nodes, attached_edges, seed=seed)


def powerlaw_cluster_graph(nodes: int, attached_edges: int = 5,
                           triangle_probability: float = 0.3,
                           seed: int = 0) -> nx.Graph:
    """Power-law graph with tunable clustering (social-network-like)."""
    import networkx as nx

    return nx.powerlaw_cluster_graph(nodes, attached_edges,
                                     triangle_probability, seed=seed)


def erdos_renyi_graph(nodes: int, probability: float, seed: int = 0,
                      directed: bool = False) -> nx.Graph:
    """Uniform random graph."""
    import networkx as nx

    return nx.gnp_random_graph(nodes, probability, seed=seed, directed=directed)


def random_edge_relation(nodes: int, edges: int, seed: int = 0,
                         name: str = "E") -> Relation:
    """A uniformly random directed edge relation of the requested size."""
    import networkx as nx

    graph = nx.gnm_random_graph(nodes, edges, seed=seed, directed=True)
    return edges_relation(graph, name=name, symmetric=False)


def triangle_count_truth(edges: Relation) -> int:
    """Ground-truth count of the directed triangle query over ``edges``.

    Counts ordered triples ``(a, b, c)`` with edges a→b, b→c, c→a — exactly
    what the triangle join query returns (an undirected triangle stored
    symmetrically is counted 6 times).  Used as the test oracle.
    """
    out_neighbours: dict[object, set] = {}
    present = set()
    for src, dst in edges:
        out_neighbours.setdefault(src, set()).add(dst)
        present.add((src, dst))
    count = 0
    for a, b in present:
        for c in out_neighbours.get(b, ()):
            if (c, a) in present:
                count += 1
    return count


def cycle_count_truth(edges: Relation, length: int) -> int:
    """Ground-truth count of the directed ``length``-cycle query (small inputs).

    Brute-force DFS over the edge set; intended for test-sized graphs.
    """
    if length < 2:
        raise ConfigurationError("cycle length must be >= 2")
    adjacency: dict[object, list] = {}
    present = set()
    for src, dst in edges:
        adjacency.setdefault(src, []).append(dst)
        present.add((src, dst))

    count = 0

    def walk(start, node, depth):
        nonlocal count
        if depth == length - 1:
            if (node, start) in present:
                count += 1
            return
        for neighbour in adjacency.get(node, ()):
            walk(start, neighbour, depth + 1)

    for src in adjacency:
        walk(src, src, 0)
    return count
