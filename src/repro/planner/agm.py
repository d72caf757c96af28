"""Fractional edge covers and the AGM bound (§2.1–2.2).

Given a query hypergraph ``H(V, E)`` and relation cardinalities ``N_e``,
the tightest AGM bound solves the linear program

.. math::

    \\min \\sum_{e \\in E} \\log(N_e)\\, u_e
    \\quad\\text{s.t.}\\quad \\sum_{e \\ni v} u_e \\ge 1 \\;\\forall v \\in V,
    \\qquad u_e \\ge 0,

whose optimum yields ``|Q| ≤ ∏ N_e^{u_e}`` (the paper reproduces this LP
verbatim in §2.2).  We solve it with :func:`scipy.optimize.linprog`
(HiGHS), returning the cover weights and the bound.  For the paper's
triangle example with ``|R|=|S|=|T|=n`` this produces
``u = (1/2, 1/2, 1/2)`` and the famous ``n^{3/2}``.

The Generic Join also needs AGM bounds for *sub-problems* with rescaled
cover weights (Alg. 1); :func:`agm_bound` accepts any hypergraph, so the
join driver simply restricts the hypergraph and re-solves (results are
memoized per (structure, sizes) key by the caller).
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.errors import QueryError
from repro.planner.hypergraph import Hypergraph

_LOG_FLOOR = 1e-12


@dataclass(frozen=True)
class FractionalCover:
    """An optimal fractional edge cover and the bound it certifies."""

    weights: dict[str, float]
    bound: float
    log_bound: float

    def weight(self, edge: str) -> float:
        return self.weights.get(edge, 0.0)


def fractional_cover(hypergraph: Hypergraph,
                     cardinalities: Mapping[str, int]) -> FractionalCover:
    """Solve the AGM LP for ``hypergraph`` with the given relation sizes.

    Relations of size 0 or 1 contribute ``log N = 0`` to the objective;
    the LP then freely assigns them weight, which is fine — the bound is
    what matters and empty relations drive it to ≤ 1.

    Solutions are memoized on the (structure, sizes) key: the scipy LP
    setup dominates plan time for small queries, and both re-planned
    queries and the Generic Join's per-level sub-problems hit the same
    handful of keys over and over.
    """
    edge_names = list(hypergraph.edges)
    missing = [e for e in edge_names if e not in cardinalities]
    if missing:
        raise QueryError(f"no cardinality provided for edges {missing}")
    structure = (
        hypergraph.vertices,
        tuple((name, tuple(sorted(hypergraph.edges[name])))
              for name in edge_names),
    )
    sizes = tuple(int(cardinalities[name]) for name in edge_names)
    return _solve_cover(structure, sizes)


@lru_cache(maxsize=1024)
def _solve_cover(structure, sizes) -> FractionalCover:
    # scipy.optimize costs ~0.45 s and ~50 MiB to import and no default
    # plan over the frontier engine solves the LP: load it with the
    # first cover, not with ``import repro``
    from scipy.optimize import linprog

    vertices, edges = structure
    edge_names = [name for name, _ in edges]
    covers = [frozenset(attrs) for _, attrs in edges]
    costs = np.array([math.log(max(n, 1)) + _LOG_FLOOR for n in sizes])
    # constraints: for each vertex v, -sum_{e ∋ v} u_e <= -1
    rows = [[-1.0 if vertex in cover else 0.0 for cover in covers]
            for vertex in vertices]
    result = linprog(
        c=costs,
        A_ub=np.array(rows),
        b_ub=-np.ones(len(rows)),
        bounds=[(0.0, None)] * len(edge_names),
        method="highs",
    )
    if not result.success:
        raise QueryError(
            f"AGM LP infeasible for edges {edge_names}: {result.message}"
        )
    weights = {name: float(w) for name, w in zip(edge_names, result.x)}
    log_bound = sum(
        weights[name] * math.log(max(n, 1))
        for name, n in zip(edge_names, sizes)
    )
    bound = math.exp(log_bound)
    return FractionalCover(weights=weights, bound=bound, log_bound=log_bound)


def agm_bound(hypergraph: Hypergraph, cardinalities: Mapping[str, int]) -> float:
    """The AGM output-size bound ``∏ N_e^{u_e}`` at the optimal cover."""
    return fractional_cover(hypergraph, cardinalities).bound


def integral_cover_bound(hypergraph: Hypergraph,
                         cardinalities: Mapping[str, int]) -> float:
    """Best *integral* edge-cover bound (what binary join plans achieve).

    Exhaustive over subsets for small queries — this is a diagnostic used
    by the benchmarks to show the gap between integral and fractional
    covers (the reason WCOJ wins on cyclic queries).
    """
    names = list(hypergraph.edges)
    if len(names) > 20:
        raise QueryError("integral cover enumeration capped at 20 edges")
    best = math.inf
    for mask in range(1, 1 << len(names)):
        chosen = [names[i] for i in range(len(names)) if mask >> i & 1]
        if not hypergraph.is_edge_cover(chosen):
            continue
        size = 1.0
        for name in chosen:
            size *= max(cardinalities[name], 1)
        best = min(best, size)
    if math.isinf(best):
        raise QueryError(f"no integral edge cover for {hypergraph!r}")
    return best
