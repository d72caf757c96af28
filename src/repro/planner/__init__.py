"""Planning substrate: hypergraphs, AGM bounds, total orders, optimizers."""

from repro.planner.agm import agm_bound, fractional_cover, integral_cover_bound
from repro.planner.cardinality import Statistics
from repro.planner.hypergraph import Hypergraph
from repro.planner.optimizer import HybridOptimizer
from repro.planner.qptree import (
    build_qp_tree,
    connectivity_order,
    is_compatible,
    total_order,
)
from repro.planner.query import JoinQuery, clique_query, cycle_query, parse_query

__all__ = [
    "HybridOptimizer",
    "Hypergraph",
    "JoinQuery",
    "Statistics",
    "agm_bound",
    "build_qp_tree",
    "clique_query",
    "connectivity_order",
    "cycle_query",
    "fractional_cover",
    "integral_cover_bound",
    "is_compatible",
    "parse_query",
    "total_order",
]
