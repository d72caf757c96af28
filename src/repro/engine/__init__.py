"""repro.engine — the staged query engine: bind → plan → prepare → execute.

The seed's monolithic :func:`repro.joins.join` is refactored into an
explicit compile pipeline with inert artifacts between stages
(:mod:`~repro.engine.pipeline`), a join-plan IR describing what the
frontier runs (:mod:`~repro.engine.ir`), a re-executable prepared join
(:mod:`~repro.engine.prepared`), and a session facade with a
fingerprint-keyed LRU index cache (:mod:`~repro.engine.session`,
:mod:`~repro.engine.cache`).  ``join()`` survives as a thin cold-path
wrapper over these stages, and is the door to the paper's tuple
drivers, which have no plan.  See ``docs/architecture.md``.
"""

from repro.engine.cache import DEFAULT_CACHE_BYTES, CacheStats, IndexCache
from repro.engine.ir import (
    COLUMNAR_KIND,
    BoundQuery,
    IndexSpec,
    JoinPlan,
    ShardingSpec,
    canonical_options,
)
from repro.engine.pipeline import bind, plan, prepare
from repro.engine.prepared import PreparedJoin
from repro.engine.session import Session
from repro.joins.executor import ALGORITHMS, ENGINES

__all__ = [
    "ALGORITHMS",
    "ENGINES",
    "BoundQuery",
    "COLUMNAR_KIND",
    "CacheStats",
    "DEFAULT_CACHE_BYTES",
    "IndexCache",
    "IndexSpec",
    "JoinPlan",
    "PreparedJoin",
    "Session",
    "ShardingSpec",
    "bind",
    "canonical_options",
    "plan",
    "prepare",
]
