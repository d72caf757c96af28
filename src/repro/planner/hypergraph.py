"""Query hypergraphs (§2.1).

Atserias, Grohe and Marx analyze a join query through its *hypergraph*
``H(V, E)``: vertices are the query attributes, hyperedges are the atoms
(each edge containing the attributes its relation binds).  Everything the
AGM machinery needs — edge covers, connectivity, vertex incidence — lives
here; the LP itself is in :mod:`repro.planner.agm`.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence

from repro.errors import QueryError
from repro.planner.query import JoinQuery


class Hypergraph:
    """``H(V, E)`` with named hyperedges.

    ``edges`` maps an edge name (the atom alias) to the frozenset of
    attributes the edge covers.
    """

    def __init__(self, vertices: Iterable[str], edges: Mapping[str, Iterable[str]]):
        self.vertices: tuple[str, ...] = tuple(dict.fromkeys(vertices))
        self.edges: dict[str, frozenset[str]] = {
            name: frozenset(attrs) for name, attrs in edges.items()
        }
        if not self.vertices:
            raise QueryError("hypergraph needs at least one vertex")
        if not self.edges:
            raise QueryError("hypergraph needs at least one edge")
        vertex_set = set(self.vertices)
        for name, attrs in self.edges.items():
            stray = attrs - vertex_set
            if stray:
                raise QueryError(f"edge {name!r} covers unknown vertices {sorted(stray)}")
        uncovered = vertex_set - set().union(*self.edges.values())
        if uncovered:
            raise QueryError(
                f"vertices {sorted(uncovered)} appear in no edge: no edge "
                f"cover exists (the AGM bound is undefined)"
            )

    @classmethod
    def from_query(cls, query: JoinQuery) -> "Hypergraph":
        return cls(query.attributes,
                   {atom.alias: atom.attributes for atom in query.atoms})

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    def edges_with(self, vertex: str) -> list[str]:
        """Names of edges incident to ``vertex``."""
        return [name for name, attrs in self.edges.items() if vertex in attrs]

    def degree(self, vertex: str) -> int:
        """Number of edges incident to ``vertex``."""
        return len(self.edges_with(vertex))

    def is_edge_cover(self, names: Iterable[str]) -> bool:
        """Do the named edges cover every vertex (integral cover check)?"""
        chosen = set()
        for name in names:
            chosen |= self.edges[name]
        return chosen >= set(self.vertices)

    def restricted_to(self, vertices: Iterable[str]) -> "Hypergraph":
        """Sub-hypergraph induced on ``vertices`` (for GJ sub-problems).

        Edges are intersected with the vertex set; empty intersections are
        dropped.
        """
        keep = set(vertices)
        edges = {}
        for name, attrs in self.edges.items():
            shared = attrs & keep
            if shared:
                edges[name] = shared
        order = [v for v in self.vertices if v in keep]
        return Hypergraph(order, edges)

    def is_connected(self) -> bool:
        """Is the hypergraph connected (no cartesian-product components)?"""
        import networkx as nx

        graph = self.intersection_graph()
        if graph.number_of_nodes() <= 1:
            return True
        return nx.is_connected(graph)

    def intersection_graph(self) -> nx.Graph:
        """Edges as nodes, linked when they share a vertex (the line graph)."""
        # networkx is needed by these two diagnostics only: imported on
        # first use so that ``import repro`` does not pay for it
        import networkx as nx

        graph = nx.Graph()
        names = list(self.edges)
        graph.add_nodes_from(names)
        for i, left in enumerate(names):
            for right in names[i + 1:]:
                if self.edges[left] & self.edges[right]:
                    graph.add_edge(left, right)
        return graph

    def covered_by_single_edge(self) -> bool:
        """Is some edge a superset of all vertices (trivial query)?"""
        full = set(self.vertices)
        return any(attrs >= full for attrs in self.edges.values())

    def __repr__(self) -> str:
        edges = ", ".join(f"{n}:{sorted(a)}" for n, a in self.edges.items())
        return f"Hypergraph(V={list(self.vertices)}, E=[{edges}])"
