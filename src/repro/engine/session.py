"""The session facade: one relation source, one index cache, many joins.

The ROADMAP's serving scenario is heavy repeated query traffic over
slowly-changing relations — exactly the workload where the paper's
per-run ad-hoc index build (§5.15) turns into the dominant wasted cost.
A :class:`Session` binds a relation source (a
:class:`~repro.storage.catalog.Catalog` or a plain mapping) to a
session-scoped :class:`~repro.engine.cache.IndexCache` and a shared
:class:`~repro.obs.metrics.Metrics` registry, then runs every query
through the staged pipeline (:mod:`repro.engine.pipeline`).  A session
holds and runs plans, and a plan describes what runs: the Generic Join
on the batch engine over columnar tries, which the default options
resolve to.  A request for one of the paper's tuple drivers
(``engine="tuple"``, ``binary`` / ``hashtrie`` / ``leapfrog``, a
pinned ``binary_order`` or ``dynamic_seed=False``) has no plan: it
raises :class:`~repro.errors.ConfigurationError` and runs cold through
:func:`repro.joins.join` instead:

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
attribute order (and set of coded columns) for a columnar trie, the one
structure a session holds besides a sharded plan's partitioning.  The
store drops the stale entry it supersedes; :meth:`invalidate` releases
a relation's entries before that.  The session's cache also holds the
one dictionary that codes its string, float and past-int64 join
columns, so every trie it caches compares codes with every other.

A session also keeps the *plans* it made: a repeated query under the
same options skips parse, bind and plan, and its frontier program
(:class:`~repro.joins.batch.FrontierProgram`) is compiled once, so a
warm read does only data-dependent work — the index lookups and the
probe.  A plan is reused while every relation it was bound to is still
the one its name resolves to, with the same dtype classes — all a
frontier plan reads of the data.  Counters ``plan.hit`` / ``plan.miss``
count the reuses in :attr:`Session.metrics`.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Mapping, Sequence

from repro.engine.cache import DEFAULT_CACHE_BYTES, CacheStats, IndexCache
from repro.engine.ir import BoundQuery, JoinPlan, canonical_options
from repro.engine.pipeline import _resolve_workers, bind, plan, prepare
from repro.engine.prepared import PreparedJoin
from repro.errors import SchemaError
from repro.joins.executor import source_relation
from repro.joins.results import JoinResult
from repro.obs.metrics import Metrics
from repro.obs.observer import resolve_observer
from repro.planner.query import JoinQuery, parse_query
from repro.storage.catalog import Catalog
from repro.storage.relation import Relation

#: plans a session keeps; the least recently used goes first.  An entry
#: holds a bound query and a plan (and its relations alive), not a
#: structure: the index cache's byte budget does not count it
_PLAN_ENTRIES = 256


class _PlanEntry:
    """One bind + plan, and what it was made from: per atom, the stored
    relation its name resolved to (``None``: none did, so the entry is
    never current) and that relation's dtype classes.  ``programs`` are
    the compiled frontier programs every prepared join of the plan
    shares."""

    __slots__ = ("bound", "plan", "sources", "dtypes", "programs")

    def __init__(self, bound: BoundQuery, join_plan: JoinPlan,
                 sources: tuple, dtypes: tuple):
        self.bound = bound
        self.plan = join_plan
        self.sources = sources
        self.dtypes = dtypes
        self.programs: dict = {}

    def current(self, source: "Catalog | Mapping[str, Relation]") -> bool:
        """Would binding and planning again give this entry's plan?"""
        for atom, relation, dtypes in zip(self.bound.query.atoms,
                                          self.sources, self.dtypes):
            if (relation is None
                    or source_relation(source, atom) is not relation
                    or relation.dtype_classes() != dtypes):
                return False
        return True


class Session:
    """A query session over one relation source, with index reuse.

    **Thread safety.**  One session may be shared by many threads.
    The session state :meth:`prepare` and :meth:`execute` write is the
    plan cache, a dict read and written under its own lock and never
    held across bind, plan or prepare (two threads missing one key both
    plan, and the later store wins; their plans are equal).  The bind
    and plan stages are pure functions of their inputs, the prepare
    stage publishes builds through the cache's compare-and-swap
    :meth:`~repro.engine.cache.IndexCache.put_if_absent` (concurrent
    misses on one fingerprint each build, one wins, all share the
    canonical structure), and each execution constructs a fresh driver
    — its per-run state over a shared program — over the shared,
    already-built tries.  The cache and the metrics registry are
    internally locked; the lock annotations on their fields and the
    plan cache's are checked by ``python -m repro.analysis`` (RA703,
    RA707), the whole contract is exercised by
    ``tests/engine/test_thread_stress.py``, and the "Thread-safety
    contract" section of ``docs/architecture.md`` describes it.
    """

    def __init__(self, source: "Catalog | Mapping[str, Relation]",
                 cache_bytes: int = DEFAULT_CACHE_BYTES,
                 metrics: "Metrics | None" = None):
        self.source = source
        #: session-wide counter registry; the cache reports into it, and
        #: callers can pass it to an observer for unified accounting
        self.metrics = metrics if metrics is not None else Metrics()
        self.cache = IndexCache(max_bytes=cache_bytes, metrics=self.metrics)
        self._plans_lock = threading.Lock()
        #: cached plans by query and canonical options, least recently
        #: used first
        self._plans = OrderedDict()    # repro: shared[lock=_plans_lock]

    # ------------------------------------------------------------------
    def prepare(self, query: "JoinQuery | str",
                algorithm: str = "generic",
                index: str = "sonic",
                order: "Sequence[str] | None" = None,
                engine: str = "auto",
                profile: bool = False,
                obs=None,
                parallel: "int | None" = None,
                **index_kwargs) -> PreparedJoin:
        """Compile a query down to a :class:`PreparedJoin` (warm path).

        Parameters mirror :func:`repro.joins.join`; ``binary_order`` and
        ``dynamic_seed``, which only the paper's door reads, are taken at
        their defaults only; the difference is the return value (executable many
        times) and the build route — every index spec goes through the
        session cache, so repeated prepares over unchanged relations skip
        the build entirely.  Only a frontier request plans: ``algorithm``
        ``"generic"``, ``"auto"`` or ``"unified"`` under
        ``engine="auto"`` or ``"batch"``, with any ``index=``
        (accepted, not built); what is cached is one columnar trie per
        relation, attribute order and set of coded columns.  A request
        for one of the paper's tuple drivers raises
        :class:`~repro.errors.ConfigurationError` before anything is
        built or cached; run it through :func:`repro.joins.join`, which
        builds its structures cold.

        With ``parallel=K``, what the cache holds per relation is the
        shared-memory shard partitioning
        (:class:`~repro.parallel.shm.ShardedColumns`) instead of a
        built index — the per-shard index builds happen inside worker
        processes, which every execution borrows from the process-wide
        idle pools (:mod:`repro.parallel.pool`).  Closing a sharded
        prepared join drops its hold on the shard columns; the cached
        segments themselves are released when their cache entries are
        evicted or superseded by a newer version's partitioning.

        The bind and plan of a call are reused by a later call with the
        same query and options while the plan's inputs are unchanged
        (see the module docstring).  A profiled call binds and plans
        afresh: its profile shows those stages and the optimizer's
        estimates.
        """
        observer = resolve_observer(profile, obs)
        options = dict(algorithm=algorithm, index=index, order=order,
                       engine=engine, index_kwargs=index_kwargs,
                       parallel=parallel)
        key = None
        if not observer.enabled:
            key = (query if isinstance(query, str) else query.atoms,
                   algorithm, index,
                   None if order is None else tuple(order),
                   engine, canonical_options(index_kwargs),
                   _resolve_workers(parallel))
        while True:
            entry = self._cached_plan(key)
            if entry is None:
                entry = self._plan(query, observer, options)
                if key is not None:
                    self._store_plan(key, entry)
            try:
                prepared = prepare(entry.bound, entry.plan, self.cache,
                                   observer)
            except SchemaError:
                # a join column turned to objects after the plan read
                # it as int64: plan again, with the column coded
                if entry.current(self.source):
                    raise
                continue
            prepared.programs = entry.programs
            return prepared

    def _plan(self, query: "JoinQuery | str", observer,
              options: dict) -> _PlanEntry:
        """Bind and plan ``query``, recording what the plan was made from;
        a request :func:`~repro.engine.pipeline.plan` refuses raises
        :class:`~repro.errors.ConfigurationError` before it is stored.

        The relations and dtype classes are read *before* binding and
        planning: a write that lands in between leaves the entry stale,
        to be planned again, never current and wrong.
        """
        if isinstance(query, str):
            query = parse_query(query)
        sources = tuple(source_relation(self.source, atom)
                        for atom in query.atoms)
        # (a missing relation: bind raises naming the atom)
        dtypes = tuple(None if relation is None else relation.dtype_classes()
                       for relation in sources)
        bound = bind(query, self.source, obs=observer)
        join_plan = plan(bound, obs=observer, **options)
        return _PlanEntry(bound, join_plan, sources, dtypes)

    def _cached_plan(self, key: "tuple | None") -> "_PlanEntry | None":
        """The cached plan under ``key`` if it is still current (counted
        as ``plan.hit``), else ``None`` (``plan.miss``; an unhashable
        option value makes the call uncacheable and counts nothing)."""
        if key is None:
            return None
        try:
            with self._plans_lock:
                entry = self._plans.get(key)
                if entry is not None:
                    self._plans.move_to_end(key)
        except TypeError:
            return None
        if entry is not None and entry.current(self.source):
            self.metrics.inc("plan.hit")
            return entry
        self.metrics.inc("plan.miss")
        return None

    def _store_plan(self, key: tuple, entry: _PlanEntry) -> None:
        try:
            with self._plans_lock:
                self._plans[key] = entry
                self._plans.move_to_end(key)
                if len(self._plans) > _PLAN_ENTRIES:
                    self._plans.popitem(last=False)
        except TypeError:
            pass   # an unhashable option value: uncacheable

    def execute(self, query: "JoinQuery | str",
                materialize: bool = False,
                trace_out: "str | None" = None,
                profile: bool = False,
                obs=None,
                **kwargs) -> JoinResult:
        """Prepare-and-run in one call, always against current data.

        Re-prepares on every call — cheap when the caches are warm: a
        cached plan skips parse, bind and plan, cached structures skip
        the build — and the fingerprint keying makes mutations visible
        immediately (unlike holding on to a :class:`PreparedJoin`, which
        pins its prepare-time snapshot).  ``profile`` / ``obs`` resolve to one
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
            # drops a sharded prepared join's hold on its shard columns
            # (no-op for ordinary plans); the session cache keeps them
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
        """Drop every cached structure (counters keep their history).
        Cached plans stay: they hold no structure."""
        self.cache.clear()

    def close(self) -> None:
        """Release cached structures and plans; the session stays
        usable but cold."""
        self.cache.clear()
        with self._plans_lock:
            self._plans.clear()

    # ------------------------------------------------------------------
    def __enter__(self) -> "Session":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:
        stats = self.cache.stats()
        return (f"Session(entries={stats.entries}, bytes={stats.bytes}, "
                f"hits={stats.hits}, misses={stats.misses})")
