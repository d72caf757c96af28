"""Query Plan Tree and total attribute order (§2.3.1, Fig 2).

The Generic Join requires every relation indexed in an order aligned with
one global *total order* γ of the query attributes.  Ngo et al. derive γ
from a **Query Plan Tree**: a binary tree over the query's hyperedges where

* each node carries a hyperedge (an atom) and a *universe* (a subset of
  query attributes);
* the root's universe is all query attributes;
* given a node with universe *u* and edge attributes *A*, the next edge
  (in an arbitrary edge order) labels both children — the *right* child's
  universe is ``u ∩ A`` and the *left* child's universe is ``u \\ A``;
* leaves are reached when the universe is empty or the edge list is
  exhausted.

The total order is read off the tree so that attributes resolved deeper in
the recursion (the right-spine intersections) come later — the paper's
Fig 2 walks the construction for a five-relation query and obtains
``γ = ⟨g,i,b,a,d,e,f,c,h⟩``.  The paper also notes the resulting γ need
not be *compatible* with every relation (no relation's attribute set need
be a suffix of γ); :func:`is_compatible` checks the suffix property and
the join driver simply permutes each relation into γ-order regardless,
which is all prefix lookups need.

This module is the faithful Python rendering the paper itself resorts to
(§4.3: "we implemented the total order algorithm in a Python script").
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.errors import QueryError
from repro.planner.query import JoinQuery


@dataclass
class QPNode:
    """One node of the Query Plan Tree."""

    edge: str                      # atom alias labelling this node
    attributes: frozenset[str]     # the edge's attributes
    universe: frozenset[str]       # attributes this subtree must order
    left: "QPNode | None" = None
    right: "QPNode | None" = None
    depth: int = 0
    _resolved: tuple[str, ...] = field(default_factory=tuple)

    def is_leaf(self) -> bool:
        return self.left is None and self.right is None


def build_qp_tree(query: JoinQuery) -> QPNode:
    """Construct the QP-tree for ``query`` using the atoms' given order."""
    atoms = list(query.atoms)
    if not atoms:
        raise QueryError("cannot build a QP-tree for an empty query")
    universe = frozenset(query.attributes)
    return _build(atoms, 0, universe, 0)


def _build(atoms: list, index: int, universe: frozenset[str], depth: int) -> QPNode:
    atom = atoms[index]
    node = QPNode(
        edge=atom.alias,
        attributes=frozenset(atom.attributes),
        universe=universe,
        depth=depth,
    )
    if index + 1 < len(atoms) and universe:
        right_universe = universe & node.attributes
        left_universe = universe - node.attributes
        # both children are labelled by the *next* hyperedge (§2.3.1)
        if left_universe:
            node.left = _build(atoms, index + 1, left_universe, depth + 1)
        if right_universe:
            node.right = _build(atoms, index + 1, right_universe, depth + 1)
    return node


def total_order(query: JoinQuery) -> tuple[str, ...]:
    """The total attribute order γ for ``query`` (§2.3.1).

    Attributes are emitted leaf-first along the left spine (the residual
    universes, resolved outside-in), with each node's intersection
    attributes following — attributes settled deeper in the recursion come
    earlier within their group.  The paper leaves the intra-group emission
    order unspecified (its Fig 2 example, like ours, yields an order that
    is *incompatible* with the query and relies on per-relation
    permutation); the properties that matter — every attribute appears
    exactly once, and attributes outside an edge's universe never precede
    the universe they separate — are what the tests pin down.
    """
    root = build_qp_tree(query)
    ordered: list[str] = []
    emitted: set[str] = set()

    def emit(attributes) -> None:
        for attribute in attributes:
            if attribute not in emitted:
                emitted.add(attribute)
                ordered.append(attribute)

    def visit(node: QPNode | None) -> None:
        if node is None:
            return
        # left subtree first: attributes outside this edge's coverage are
        # resolved before the edge's own intersection attributes
        visit(node.left)
        if node.is_leaf():
            emit(sorted(node.universe))
            return
        visit(node.right)
        emit(sorted(node.universe & node.attributes))
        emit(sorted(node.universe))

    visit(root)
    # safety net: any attribute the traversal missed goes last
    emit(query.attributes)
    return tuple(ordered)


def is_compatible(order: Sequence[str], query: JoinQuery) -> bool:
    """Does some atom's attribute set form a suffix of ``order`` (§2.3.1)?

    The paper's Fig 2 example is *not* compatible; the Generic Join then
    relies on per-relation permutation rather than shared suffixes.
    """
    order = list(order)
    for atom in query.atoms:
        want = set(atom.attributes)
        suffix = order[len(order) - len(want):]
        if set(suffix) == want:
            return True
    return False


def connectivity_order(query: JoinQuery) -> tuple[str, ...]:
    """Total order for attribute-at-a-time execution: join keys first.

    The QP-tree order of :func:`total_order` follows Ngo et al.'s
    construction, which is stated for the *relation-recursive* Generic
    Join (Alg. 1 decomposes by relations).  The attribute-at-a-time form
    every practical system executes (see
    :class:`repro.joins.generic_join.GenericJoin`) additionally needs the
    order to stay *connected*: binding attributes private to different
    relations before any shared attribute enumerates their cross product.
    This heuristic — highest-degree attribute first, then always an
    attribute sharing an atom with the bound set, ties broken by degree —
    is the standard practice ([34]) and is the execution default in
    :func:`repro.joins.executor.join`.
    """
    degree = {attribute: len(query.atoms_with(attribute))
              for attribute in query.attributes}
    remaining = list(query.attributes)
    order: list[str] = []
    bound_atoms: set[str] = set()

    def connected(attribute: str) -> bool:
        return any(atom.alias in bound_atoms
                   for atom in query.atoms_with(attribute))

    while remaining:
        if order:
            candidates = [a for a in remaining if connected(a)] or remaining
        else:
            candidates = remaining
        best = max(candidates, key=lambda a: (degree[a], -remaining.index(a)))
        order.append(best)
        remaining.remove(best)
        for atom in query.atoms_with(best):
            bound_atoms.add(atom.alias)
    return tuple(order)
