"""The staged compile pipeline: **bind → plan → prepare** (→ execute).

The seed executor did all four stages inline in one monolithic
``join()``; this module splits them into explicit, separately-callable
stages with inert artifacts in between:

* :func:`bind` — parse the query if needed, resolve each atom against a
  :class:`~repro.storage.catalog.Catalog` or mapping.  Output:
  :class:`~repro.engine.ir.BoundQuery`.
* :func:`plan` — resolve ``"auto"`` and the engine, derive the total
  attribute order, and emit one columnar
  :class:`~repro.engine.ir.IndexSpec` per atom.  Nothing is built.
  Output: a frontier :class:`~repro.engine.ir.JoinPlan`.
* :func:`prepare` — turn every spec into a built columnar trie (or,
  for a sharded plan, each relation's shard partitioning), going
  through a :class:`~repro.engine.cache.IndexCache` when one is given
  (the :class:`~repro.engine.session.Session` warm path) or building
  fresh when not (the :func:`repro.joins.join` cold path, preserving
  the paper's build-included timing semantics, §5.15).  Output:
  :class:`~repro.engine.prepared.PreparedJoin`, executable many times.

A plan describes what runs: the frontier, the Generic Join on the batch
engine over columnar tries.  A request for one of the paper's tuple
drivers (:func:`repro.joins.executor.door_request`) has no plan —
:func:`plan` raises :class:`~repro.errors.ConfigurationError` for it —
and runs through :func:`repro.joins.join`'s own door, whose driver
builds its own structures.

Each stage runs under a tracer span of its own name, so a profiled run
shows ``bind`` / ``plan`` (containing ``optimize``) / ``prepare``
(containing per-atom ``build_index`` spans) ahead of the driver's
``probe`` — the same observable skeleton the seed emitted, plus the
stage boundaries.

Unlike the seed, index options nothing can honor raise
:class:`~repro.errors.ConfigurationError` at plan time instead of being
silently swallowed: the frontier accepts the Generic Join's options
(``index=`` is accepted, not built, so they configure nothing) and
refuses the rest.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import replace

from repro.engine.cache import IndexCache
from repro.engine.ir import (
    COLUMNAR_KIND,
    BoundQuery,
    IndexSpec,
    JoinPlan,
    ShardingSpec,
    canonical_options,
)
from repro.engine.prepared import PreparedJoin
from repro.errors import SchemaError
from repro.indexes.columnar import ColumnarTrie, Dictionary, mergeable
from repro.joins.executor import (
    GENERIC_OPTIONS,
    check_names,
    door_refusal,
    door_request,
    police_options,
    resolve_order,
    resolve_relations,
)
from repro.joins.results import Stopwatch
from repro.obs.observer import NULL_OBSERVER
from repro.planner.cardinality import Statistics
from repro.planner.hypergraph import Hypergraph
from repro.planner.optimizer import HybridOptimizer, PlanChoice, cyclic_core
from repro.planner.query import JoinQuery, parse_query
from repro.storage.catalog import Catalog
from repro.storage.relation import Relation, Snapshot


def bind(query: "JoinQuery | str",
         source: "Catalog | Mapping[str, Relation]",
         obs=None) -> BoundQuery:
    """The bind stage: query text → query resolved against relations."""
    observer = obs if obs is not None else NULL_OBSERVER
    if isinstance(query, str):
        query = parse_query(query)
    with observer.tracer.span("bind"):
        relations = resolve_relations(query, source)
    return BoundQuery(query=query, relations=relations)


def plan(bound: BoundQuery,
         algorithm: str = "generic",
         index: str = "sonic",
         order: "Sequence[str] | None" = None,
         engine: str = "auto",
         obs=None,
         index_kwargs: "Mapping[str, object] | None" = None,
         parallel: "int | None" = None) -> JoinPlan:
    """The plan stage: a bound query → a frontier :class:`JoinPlan`.

    Runs the hybrid optimizer when ``algorithm="auto"`` or the observer
    is enabled (the optimizer's estimate is part of every profile), pins
    the total attribute order (:func:`~repro.joins.executor.resolve_order`),
    polices the index options, and emits one columnar
    :class:`~repro.engine.ir.IndexSpec` per atom.  The plan is inert —
    nothing is built until :func:`prepare`.

    Only the frontier plans: a request for one of the paper's tuple
    drivers (``engine="tuple"``; ``binary``, ``hashtrie`` or
    ``leapfrog``; a pinned ``binary_order`` or ``dynamic_seed=False``
    among the index options, as a session passes them on) raises
    :class:`~repro.errors.ConfigurationError` naming the door that runs
    it, ``join(engine="tuple")``.  ``algorithm="unified"`` is another
    name for ``"auto"``: the frontier runs a cyclic core and its acyclic
    ears as one Generic Join, and an acyclic query where the paper's
    optimizer would pick the binary pipeline.

    ``parallel`` (0 / ``None``, the default, means single-process)
    plants a :class:`~repro.engine.ir.ShardingSpec` on the plan: the
    prepare stage then partitions the relations into that many
    shared-memory shards on the plan's leading attribute, and execution
    fans out to a worker-process pool (:mod:`repro.parallel`).  ``parallel=1`` is a
    valid degenerate fleet — one worker process, useful as the
    like-for-like baseline when measuring fan-out speedup.
    """
    observer = obs if obs is not None else NULL_OBSERVER
    check_names(algorithm, engine)
    if algorithm == "unified":
        algorithm = "auto"
    kwargs = dict(index_kwargs or {})
    if door_request(algorithm, engine, kwargs.pop("binary_order", None),
                    kwargs.pop("dynamic_seed", True)):
        raise door_refusal(algorithm, engine)
    police_options(algorithm, index, kwargs, GENERIC_OPTIONS)
    query, relations = bound.query, bound.relations

    with observer.tracer.span("plan"):
        # the optimizer's estimate is part of every profile (estimated vs
        # actual), so an enabled observer computes it even off the auto path
        choice = None
        route = ""
        decides = algorithm == "auto"
        if decides or observer.enabled:
            with observer.tracer.span("optimize"):
                stats = Statistics.collect(relations.values())
                # the one GYO reduction: the optimizer's acyclicity test
                # reads it
                core = cyclic_core(Hypergraph.from_query(query))
                choice = _choose(query, stats, core, decides,
                                 observer.enabled)
            if decides and not core:
                route = (f"engine={engine}: batch in the binary pipeline's "
                         f"place ({', '.join(a.alias for a in query.atoms)})")
        result = _generic_plan(query, relations,
                               resolve_order(query, order), index,
                               choice, route)
        workers = _resolve_workers(parallel)
        if workers:
            # shard on the leading attribute: every result tuple binds
            # it to exactly one value, so shard results are disjoint
            result = replace(result, sharding=ShardingSpec(
                workers=workers, attribute=result.total_order[0]))
    return result


def _resolve_workers(parallel: "int | None") -> int:
    # imported lazily: repro.parallel sits beside the engine and its
    # worker module re-enters this pipeline inside worker processes,
    # so the module-scope dependency stays one-directional
    from repro.parallel.pool import resolve_workers

    return resolve_workers(parallel)


def prepare(bound: BoundQuery, join_plan: JoinPlan,
            cache: "IndexCache | None" = None,
            obs=None) -> PreparedJoin:
    """The prepare stage: specs → built structures → a :class:`PreparedJoin`.

    One loop serves every caller — cold or cached, single-process or
    sharded, and a shard worker running its parent's plan: per spec, a
    cache lookup, one :meth:`~repro.storage.relation.Relation.snapshot`
    naming the version, a build from that snapshot's columns, its span,
    and a compare-and-swap publish under that version.  A plan picks
    its key suffix and builder here, once: a columnar trie under the
    spec's suffix, or — for a sharded plan, whose indexes are built
    inside the workers — the relation's
    :class:`~repro.parallel.shm.ShardedColumns` under the sharding's
    scheme, worker count and the partition attribute's *storage
    position* (renamed views share fingerprints, so position — not
    name — is the stable part), plus the spec's options: the columns
    its plan codes, which the workers' trie builds follow.

    With a ``cache``, a hit skips the build entirely (and two atoms
    over the same stored relation with the same spec share one build
    *within* a single prepare, the self-join alias case); a miss — a
    trie merged into its cached older version — publishes under its
    snapshot's version, dropping older entries.  Without a cache, every
    structure is built fresh: :func:`repro.joins.join`'s cold path.

    The columns a columnar spec codes (its ``coded`` option) are encoded
    by the cache's :class:`~repro.indexes.columnar.Dictionary` — one per
    session, so that every trie it holds compares codes with every
    other — or, without a cache, by a dictionary of this prepare's own.

    The wall time spent building is returned on the prepared join as
    ``build_seconds`` and charged to the **first** execution's
    ``metrics.build_seconds`` (§5.15's build-included timing); repeat
    executions report zero build.  Cache hit/miss counters live in the
    cache's own metrics registry and are mirrored into an enabled
    observer; every build is recorded as a ``build_index`` span.
    """
    observer = obs if obs is not None else NULL_OBSERVER
    obs_enabled = observer.enabled
    if cache is not None and not cache.enabled:
        cache = None
    sharding = join_plan.sharding
    if sharding is None:
        dictionary = cache.dictionary if cache is not None else Dictionary()
        suffix_of = IndexSpec.cache_key_suffix

        def build(spec: IndexSpec, snapshot: Snapshot, key: "tuple | None"):
            return _build_trie(spec, snapshot, dictionary,
                               key and cache.predecessor(key))

        def record(spec: IndexSpec, start_ns: int, tuples: int,
                   delta: int) -> None:
            observer.record_build(spec.alias, start_ns, index=spec.kind,
                                  tuples=tuples,
                                  **({"delta": delta} if delta else {}))
    else:
        # lazy import, same one-directional rationale as _resolve_workers
        from repro.parallel.partition import build_sharded_columns

        def suffix_of(spec: IndexSpec) -> tuple:
            return ("shards", sharding.scheme, sharding.workers,
                    _storage_position(spec, sharding.attribute),
                    spec.options)

        def build(spec: IndexSpec, snapshot: Snapshot, key: "tuple | None"):
            # the workers build tries by this plan as it is: refuse a join
            # column turned to objects since the plan read it as int64
            # here, as a trie build would, so a session plans it coded
            coded = dict(spec.options).get("coded", ())
            for i in spec.permutation:
                if i not in coded and snapshot.columns[i].dtype == object:
                    raise SchemaError(
                        f"column {i} of relation {spec.alias!r} holds "
                        "objects; its plan read int64")
            return build_sharded_columns(
                snapshot.columns, _storage_position(spec, sharding.attribute),
                sharding.workers), 0

        def record(spec: IndexSpec, start_ns: int, tuples: int,
                   delta: int) -> None:
            observer.tracer.add_span(
                "partition_shards", start_ns, Stopwatch.now_ns() - start_ns,
                alias=spec.alias, workers=sharding.workers, tuples=tuples)
    structures: dict[str, object] = {}
    watch = Stopwatch()
    try:
        with observer.tracer.span("prepare"):
            for spec in join_plan.index_specs:
                relation = bound.relations[spec.alias]
                structure = None
                if cache is not None:
                    suffix = suffix_of(spec)
                    structure = cache.get(cache.key_for(relation, suffix))
                    if obs_enabled:
                        observer.metrics.inc("cache.hit" if structure
                                             is not None else "cache.miss")
                if structure is None:
                    start_ns = Stopwatch.now_ns()
                    # one consistent read names the version and the rows:
                    # the structure is made from exactly ``count`` rows and
                    # published under exactly that version's key, even
                    # when an extend() landed after the lookup above
                    snapshot = relation.snapshot()
                    key = (cache.key_for(relation, suffix, snapshot.version)
                           if cache is not None else None)
                    structure, delta = build(spec, snapshot, key)
                    if obs_enabled:
                        record(spec, start_ns, snapshot.count, delta)
                    if cache is not None:
                        structure = _publish(cache, key, structure)
                structures[spec.alias] = structure
    except BaseException:
        if sharding is not None and cache is None:
            for built in structures.values():  # this call's own segments
                built.close()
        raise
    return PreparedJoin(bound, join_plan, structures, watch.lap(),
                        owned_shards=cache is None)


def _publish(cache: IndexCache, key: tuple, structure):
    """Compare-and-swap ``structure`` into ``cache`` under ``key``; the
    canonical structure to use.

    When another thread built the same key first, adopt its structure,
    so every concurrent preparer shares one canonical build and the LRU
    byte accounting never double-charges.  A columnar trie's levels
    appear as joins descend, and the entry's byte charge follows them:
    its deepen callback is hooked *before* publishing, so no descent can
    slip between publish and hookup; a CAS loss discards this trie (no
    level built yet) and adopts the winner's, callback included.  A
    losing shard partitioning releases its segments.
    """
    if not isinstance(structure, ColumnarTrie):
        published = cache.put_if_absent(key, structure,
                                        structure.memory_usage())
        if published is not structure:
            structure.close()
        return published
    structure.on_deepen = lambda trie: cache.recharge(key)
    return cache.put_if_absent(key, structure, structure.memory_usage())


def _storage_position(spec: IndexSpec, attribute: str) -> "int | None":
    """The storage position of ``attribute`` in ``spec``'s relation, or
    ``None`` when the relation does not bind it (``permutation`` maps
    each position of ``attribute_order`` to its storage position)."""
    if attribute not in spec.attribute_order:
        return None
    return spec.permutation[spec.attribute_order.index(attribute)]


# ----------------------------------------------------------------------
# Per-algorithm planners
# ----------------------------------------------------------------------

def _choose(query: JoinQuery, stats: Statistics, core: set,
            decides: bool, explain: bool) -> PlanChoice:
    """The hybrid optimizer's choice, as the frontier runs it.

    The optimizer sends an acyclic query to the binary pipeline (the
    paper's Table 1); when it ``decides`` the plan (``"auto"``), the
    frontier takes that query instead: the batch engine answers any
    input as the binary pipeline would, repeated rows and string keys
    included, and builds by one sort per relation where a stage table
    is a Python loop over rows.  ``core`` is the query's cyclic core,
    the plan's one GYO reduction.  The AGM bound and the binary peak
    estimate are computed where ``explain`` (an enabled observer
    reports them) and nowhere else.
    """
    optimizer = HybridOptimizer()
    if decides and not core:
        reported = optimizer.decide(query, stats, True) if explain else None
        return PlanChoice(
            "wcoj",
            "acyclic query the columnar Generic Join answers as the "
            "binary pipeline would, building by one sort per relation",
            reported and reported.agm_bound,
            reported and reported.binary_estimate)
    return optimizer.decide(query, stats, not core, estimate=explain)


def _generic_plan(query: JoinQuery, relations: Mapping[str, Relation],
                  total: tuple[str, ...], index: str, choice,
                  note: str) -> JoinPlan:
    """The frontier plan: one columnar trie per atom under ``total``.

    An attribute with an object column in any of the query's atoms is
    joined by dictionary code, every column of it: each atom's spec
    names the storage positions its trie codes (the ``coded`` option),
    which keys the cache apart from a trie over the same columns
    uncoded.  ``note`` (the acyclic route) is appended to the choice's
    reason.
    """
    coded = {attribute for atom in query.atoms
             for attribute, dtype in zip(
                 atom.attributes, relations[atom.alias].dtype_classes())
             if dtype == "object"}
    specs = []
    for atom in query.atoms:
        relation = relations[atom.alias]
        attribute_order = tuple(a for a in total if a in atom.attributes)
        positions = tuple(position for position, attribute
                          in enumerate(atom.attributes) if attribute in coded)
        specs.append(IndexSpec(
            alias=atom.alias, kind=COLUMNAR_KIND,
            attribute_order=attribute_order,
            permutation=relation.schema.permutation_to(attribute_order),
            options=canonical_options(
                {"coded": positions} if positions else None)))
    if choice is not None and note:
        choice = replace(choice, reason=f"{choice.reason}; {note}")
    return JoinPlan(query=query, algorithm="generic", output=total,
                    engine="batch", index=index, total_order=total,
                    index_specs=tuple(specs), choice=choice,
                    engine_note=note)


# ----------------------------------------------------------------------
# The structure builder (the prepare stage's workhorse)
# ----------------------------------------------------------------------

def _build_trie(spec: IndexSpec, snapshot: Snapshot, dictionary: Dictionary,
                base: "ColumnarTrie | None") -> tuple:
    """Build the columnar trie a spec describes from one consistent
    read of its relation — exactly the rows the cache key names — and
    the count of rows merged into ``base`` (0: a fresh build).

    ``base``, an older version's trie or None, holds the first
    ``base.tuples`` rows: unless :func:`~repro.indexes.columnar.mergeable`
    refuses, only the rest are encoded (by ``dictionary``, where the spec
    codes them), sorted and merged.  Repeated rows are all kept."""
    columns = snapshot.columns
    coded = dict(spec.options).get("coded", ())

    def encoded(start: int) -> tuple:
        return tuple(dictionary.encode(columns[i][start:]) if i in coded
                     else columns[i][start:] for i in spec.permutation)

    delta = encoded(base.tuples) if base is not None else None
    if mergeable(base, delta):
        trie = ColumnarTrie(delta, base=base)
    else:
        trie, delta = ColumnarTrie(encoded(0)), None
    trie.decoders = tuple(dictionary if i in coded else None
                          for i in spec.permutation)
    return trie, len(delta[0]) if delta is not None else 0
