"""SonicJoin reproduction — the Sonic index and worst-case optimal joins.

A from-scratch Python implementation of *SonicJoin: Fast, Robust and
Worst-case Optimal* (Khazaie & Pirk, EDBT 2023): the Sonic index structure,
an index-agnostic Generic Join, the full baseline index set of the paper's
comparative study, binary-join / Hash-Trie-Join / Leapfrog baselines, the
AGM-bound planning machinery, and the workload generators behind every
figure and table of the evaluation.

Quickstart::

    from repro import Relation, join, parse_query

    edges = Relation("E", ("src", "dst"), [(0, 1), (1, 2), (2, 0)])
    query = parse_query("E1=E(a,b), E2=E(b,c), E3=E(c,a)")
    print(join(query, {"E1": edges, "E2": edges, "E3": edges}).count)

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record.
"""

from repro.core import SonicConfig, SonicIndex
from repro.core.adapter import IndexAdapter
from repro.engine import JoinPlan, PreparedJoin, Session
from repro.errors import (
    CapacityError,
    ConfigurationError,
    ExecutionError,
    QueryError,
    ReproError,
    SchemaError,
    UnsupportedOperationError,
)
from repro.joins import JoinResult, join
from repro.planner import (
    Hypergraph,
    JoinQuery,
    cycle_query,
    fractional_cover,
    parse_query,
)
from repro.storage import Relation, Schema

__version__ = "1.0.0"

__all__ = [
    "CapacityError",
    "ConfigurationError",
    "ExecutionError",
    "Hypergraph",
    "IndexAdapter",
    "JoinPlan",
    "JoinQuery",
    "JoinResult",
    "PreparedJoin",
    "QueryError",
    "Relation",
    "ReproError",
    "Schema",
    "SchemaError",
    "Session",
    "SonicConfig",
    "SonicIndex",
    "UnsupportedOperationError",
    "cycle_query",
    "fractional_cover",
    "join",
    "parse_query",
]
