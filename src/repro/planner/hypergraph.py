"""Query hypergraphs (§2.1).

Atserias, Grohe and Marx analyze a join query through its *hypergraph*
``H(V, E)``: vertices are the query attributes, hyperedges are the atoms
(each edge containing the attributes its relation binds).  Everything the
AGM machinery needs — edge covers, vertex incidence — lives here; the LP
itself is in :mod:`repro.planner.agm`.
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

    def __repr__(self) -> str:
        edges = ", ".join(f"{n}:{sorted(a)}" for n, a in self.edges.items())
        return f"Hypergraph(V={list(self.vertices)}, E=[{edges}])"
