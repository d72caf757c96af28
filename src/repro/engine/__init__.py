"""repro.engine — the staged query engine: bind → plan → prepare → execute.

The seed's monolithic :func:`repro.joins.join` is refactored into an
explicit compile pipeline with inert artifacts between stages
(:mod:`~repro.engine.pipeline`), a join-plan IR covering every
algorithm/engine combination (:mod:`~repro.engine.ir`), a re-executable
prepared join (:mod:`~repro.engine.prepared`), and a session facade
with a fingerprint-keyed LRU index cache (:mod:`~repro.engine.session`,
:mod:`~repro.engine.cache`).  ``join()`` itself survives as a thin
cold-path wrapper over these stages.  See ``docs/architecture.md``.
"""

from repro.engine.cache import (
    DEFAULT_CACHE_BYTES,
    CacheStats,
    IndexCache,
    estimate_structure_bytes,
)
from repro.engine.ir import (
    COLUMNAR_KIND,
    HASHTABLE_KIND,
    TUPLESET_KIND,
    BoundQuery,
    IndexSpec,
    JoinPlan,
    ShardingSpec,
    canonical_options,
)
from repro.engine.pipeline import ALGORITHMS, ENGINES, bind, plan, prepare
from repro.engine.prepared import PreparedJoin
from repro.engine.session import Session

__all__ = [
    "ALGORITHMS",
    "ENGINES",
    "BoundQuery",
    "COLUMNAR_KIND",
    "CacheStats",
    "DEFAULT_CACHE_BYTES",
    "HASHTABLE_KIND",
    "IndexCache",
    "IndexSpec",
    "JoinPlan",
    "PreparedJoin",
    "Session",
    "ShardingSpec",
    "TUPLESET_KIND",
    "bind",
    "canonical_options",
    "estimate_structure_bytes",
    "plan",
    "prepare",
]
