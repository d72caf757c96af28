"""The session facade: one relation source, one index cache, many joins.

The ROADMAP's serving scenario is heavy repeated query traffic over
slowly-changing relations — exactly the workload where the paper's
per-run ad-hoc index build (§5.15) turns into the dominant wasted cost.
A :class:`Session` binds a relation source (a
:class:`~repro.storage.catalog.Catalog` or a plain mapping) to a
session-scoped :class:`~repro.engine.cache.IndexCache` and a shared
:class:`~repro.obs.metrics.Metrics` registry, then runs every query
through the staged pipeline (:mod:`repro.engine.pipeline`):

>>> from repro import Relation, Session
>>> edges = Relation("E", ("src", "dst"), [(0, 1), (1, 2), (2, 0)])
>>> session = Session({"E1": edges, "E2": edges, "E3": edges})
>>> prepared = session.prepare("E1=E(a,b), E2=E(b,c), E3=E(c,a)")
>>> prepared.execute().count, prepared.execute().count
(3, 3)
>>> session.cache_stats().hits  # E2 reused E1's build (same permutation)
1
>>> session.cache_stats().entries  # (a,b) and the flipped (c,a) layout
2

Cache coherence is by *fingerprint*, not invalidation hooks: mutating a
relation (:meth:`~repro.storage.relation.Relation.insert` /
:meth:`~repro.storage.relation.Relation.extend`) bumps its shared
version counter, so the next prepare misses the stale entries —
:meth:`Session.execute` therefore always sees current data, while an
already-:meth:`~Session.prepare`-d join keeps its snapshot until
re-prepared.  A miss rebuilds: one packed sort per relation and
attribute order for the frontier engine's columnar trie — which is what
a session holds unless asked otherwise — and likewise the registry index,
stage table or row set of any other plan.  The store drops the stale
entry it supersedes; :meth:`invalidate` releases a relation's entries
before that.  The session's cache also holds the one dictionary that
codes its string, float and past-int64 join columns, so every trie it
caches compares codes with every other.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from repro.engine.cache import DEFAULT_CACHE_BYTES, CacheStats, IndexCache
from repro.engine.pipeline import bind, plan, prepare
from repro.engine.prepared import PreparedJoin
from repro.joins.results import JoinResult
from repro.obs.metrics import Metrics
from repro.obs.observer import resolve_observer
from repro.planner.query import JoinQuery
from repro.storage.catalog import Catalog
from repro.storage.relation import Relation


class Session:
    """A query session over one relation source, with index reuse.

    **Thread safety.**  One session may be shared by many threads:
    :meth:`prepare` and :meth:`execute` write no session state of their
    own — the staged pipeline's bind/plan stages are pure functions of
    their inputs, the prepare stage publishes builds through the cache's
    compare-and-swap :meth:`~repro.engine.cache.IndexCache.put_if_absent`
    (concurrent misses on one fingerprint each build, one wins, all
    share the canonical structure), and each execution constructs a
    fresh driver over the shared prebuilt structures.  The cache and the
    metrics registry are internally locked; the lock annotations on
    their fields are checked by ``python -m repro.analysis`` (RA703,
    RA707), the whole contract is exercised by
    ``tests/engine/test_thread_stress.py``, and the "Thread-safety
    contract" section of ``docs/architecture.md`` describes it.
    """

    def __init__(self, source: "Catalog | Mapping[str, Relation]",
                 cache_bytes: int = DEFAULT_CACHE_BYTES,
                 cache_entries: "int | None" = None,
                 metrics: "Metrics | None" = None):
        self.source = source
        #: session-wide counter registry; the cache reports into it, and
        #: callers can pass it to an observer for unified accounting
        self.metrics = metrics if metrics is not None else Metrics()
        self.cache = IndexCache(max_bytes=cache_bytes,
                                max_entries=cache_entries,
                                metrics=self.metrics)

    # ------------------------------------------------------------------
    def prepare(self, query: "JoinQuery | str",
                algorithm: str = "generic",
                index: str = "sonic",
                order: "Sequence[str] | None" = None,
                dynamic_seed: bool = True,
                binary_order: "Sequence[str] | None" = None,
                engine: str = "auto",
                debug: "bool | None" = None,
                profile: "bool | None" = None,
                obs=None,
                parallel: "int | None" = None,
                **index_kwargs) -> PreparedJoin:
        """Compile a query down to a :class:`PreparedJoin` (warm path).

        Parameters mirror :func:`repro.joins.join`; the difference is
        the return value (executable many times) and the build route —
        every index spec goes through the session cache, so repeated
        prepares over unchanged relations skip the build entirely.
        What is cached follows the resolved engine: one columnar trie
        per relation, attribute order and set of coded columns under
        ``engine="batch"`` — which the default ``"auto"`` resolves to —
        and the ``index`` kind under ``engine="tuple"`` (the paper's
        configuration).  Unless the engine is pinned to ``"tuple"``,
        ``algorithm="auto"`` (or its other name, ``"unified"``) runs an
        *acyclic* query on the batch engine too, whatever its data.

        With ``parallel=K`` (or ``REPRO_WORKERS``), what the cache
        holds per relation is the shared-memory shard partitioning
        (:class:`~repro.parallel.shm.ShardedColumns`) instead of a
        built index — the per-shard index builds happen inside worker
        processes.  Call :meth:`PreparedJoin.close` on a sharded
        prepared join to stop its worker pool; the cached segments
        themselves are released when their cache entries are evicted
        or superseded by a newer version's partitioning.
        """
        observer = resolve_observer(profile, obs)
        bound = bind(query, self.source, debug=debug, obs=observer)
        join_plan = plan(bound, algorithm=algorithm, index=index, order=order,
                         binary_order=binary_order, engine=engine,
                         dynamic_seed=dynamic_seed, debug=debug, obs=observer,
                         index_kwargs=index_kwargs, parallel=parallel)
        return prepare(bound, join_plan, cache=self.cache, obs=observer)

    def execute(self, query: "JoinQuery | str",
                materialize: bool = False,
                trace_out: "str | None" = None,
                profile: "bool | None" = None,
                obs=None,
                **kwargs) -> JoinResult:
        """Prepare-and-run in one call, always against current data.

        Re-prepares on every call — cheap when the cache is warm, and
        the fingerprint keying makes mutations visible immediately
        (unlike holding on to a :class:`PreparedJoin`, which pins its
        prepare-time snapshot).  ``profile`` / ``obs`` resolve to one
        observer for both halves, so ``result.profile`` covers bind,
        plan and prepare (cache hits, ``build_index`` spans) as well as
        the probe and its per-level tree.
        """
        observer = resolve_observer(profile, obs)
        prepared = self.prepare(query, obs=observer, **kwargs)
        try:
            return prepared.execute(materialize=materialize, obs=observer,
                                    trace_out=trace_out)
        finally:
            # one-shot semantics: a sharded prepared join must not leak
            # its worker pool (no-op for ordinary plans); hold on to a
            # PreparedJoin from prepare() to keep a pool warm instead
            prepared.close()

    # ------------------------------------------------------------------
    def cache_stats(self) -> CacheStats:
        """Point-in-time cache accounting (hits/misses/evictions/bytes)."""
        return self.cache.stats()

    def invalidate(self, relation: "Relation | str") -> int:
        """Eagerly drop cache entries built from ``relation``.

        Accepts a relation or a name resolved against the session
        source.  Purely a memory-release aid — stale entries already
        stop matching once the relation's version moves on, and are
        dropped when their successor is stored.  Returns the number of
        entries dropped.
        """
        if isinstance(relation, str):
            if isinstance(self.source, Catalog):
                relation = self.source.get(relation)
            else:
                relation = self.source[relation]
        return self.cache.invalidate_relation(relation)

    def clear_cache(self) -> None:
        """Drop every cached structure (counters keep their history)."""
        self.cache.clear()

    def close(self) -> None:
        """Release cached structures; the session stays usable but cold."""
        self.cache.clear()

    # ------------------------------------------------------------------
    def __enter__(self) -> "Session":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:
        stats = self.cache.stats()
        return (f"Session(entries={stats.entries}, bytes={stats.bytes}, "
                f"hits={stats.hits}, misses={stats.misses})")
