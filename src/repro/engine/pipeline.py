"""The staged compile pipeline: **bind → plan → prepare** (→ execute).

The seed executor did all four stages inline in one monolithic
``join()``; this module splits them into explicit, separately-callable
stages with inert artifacts in between:

* :func:`bind` — parse the query if needed, resolve each atom against a
  :class:`~repro.storage.catalog.Catalog` or mapping, and (in debug
  mode) run the RA301/RA304/RA305 plan checks.  Output:
  :class:`~repro.engine.ir.BoundQuery`.
* :func:`plan` — resolve ``"auto"`` algorithm/engine choices, derive the
  total attribute order (or the binary pipeline's atom order), and emit
  one :class:`~repro.engine.ir.IndexSpec` per supporting structure.
  Nothing is built.  Output: :class:`~repro.engine.ir.JoinPlan`.
* :func:`prepare` — turn every spec into a built structure, going
  through a :class:`~repro.engine.cache.IndexCache` when one is given
  (the :class:`~repro.engine.session.Session` warm path) or building
  fresh when not (the :func:`repro.joins.join` cold path, preserving
  the paper's build-included timing semantics, §5.15).  Output:
  :class:`~repro.engine.prepared.PreparedJoin`, executable many times.

Each stage runs under a tracer span of its own name, so a profiled run
shows ``bind`` / ``plan`` (containing ``optimize``) / ``prepare``
(containing per-atom ``build_index`` spans) ahead of the driver's
``probe`` — the same observable skeleton the seed emitted, plus the
stage boundaries.

Unlike the seed, index options that an algorithm cannot honor raise
:class:`~repro.errors.ConfigurationError` at plan time instead of being
silently swallowed (e.g. ``sonic_bucket_size`` with
``algorithm="binary"``).  ``algorithm="auto"`` validates against the
Generic Join's option set, since that is the algorithm the options
would apply to if chosen; when the optimizer picks the binary pipeline
instead, generic-only options are unused, exactly as in the seed.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import replace
from itertools import islice

from repro.core.adapter import IndexAdapter
from repro.core.config import SonicConfig
from repro.core.envflag import resolve_flag
from repro.engine.cache import IndexCache, estimate_structure_bytes
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
from repro.engine.prepared import PreparedJoin
from repro.errors import ConfigurationError, QueryError, SchemaError
from repro.indexes.columnar import ColumnarTrie, Dictionary
from repro.indexes.registry import make_index
from repro.joins.binary import build_stage_table, plan_pipeline
from repro.joins.executor import ALGORITHMS, ENGINES, resolve_relations
from repro.joins.results import Stopwatch
from repro.obs.observer import NULL_OBSERVER
from repro.planner.cardinality import Statistics
from repro.planner.hypergraph import Hypergraph
from repro.planner.optimizer import (
    HybridOptimizer,
    PlanChoice,
    cyclic_core,
    greedy_join_order,
)
from repro.planner.qptree import connectivity_order
from repro.planner.query import JoinQuery, parse_query
from repro.storage.catalog import Catalog
from repro.storage.relation import Relation, Snapshot

#: index options each algorithm can honor; anything else raises
#: ConfigurationError at plan time (the seed swallowed them silently)
_GENERIC_OPTIONS = frozenset({"sonic_overallocation", "sonic_bucket_size",
                              "index_options"})
_ALLOWED_OPTIONS = {
    "generic": _GENERIC_OPTIONS,
    "hashtrie": frozenset({"lazy", "singleton_pruning"}),
    "binary": frozenset(),
    "leapfrog": frozenset(),
    "recursive": frozenset(),
}


def bind(query: "JoinQuery | str",
         source: "Catalog | Mapping[str, Relation]",
         debug: "bool | None" = None,
         obs=None) -> BoundQuery:
    """The bind stage: query text → query resolved against relations.

    ``debug`` (default: the ``REPRO_DEBUG`` environment variable) runs
    the relation-level plan checks (RA301/RA304/RA305) on the resolved
    atoms, raising :class:`~repro.errors.PlanValidationError` early.
    """
    observer = obs if obs is not None else NULL_OBSERVER
    if isinstance(query, str):
        query = parse_query(query)
    with observer.tracer.span("bind"):
        relations = resolve_relations(query, source)
        if resolve_flag(debug, "REPRO_DEBUG"):
            # imported where it is called: the checks run in debug mode
            # only, and their package loads the whole static analyzer
            from repro.analysis.plancheck import check_plan

            check_plan(query, relations=relations)
    return BoundQuery(query=query, relations=relations)


def plan(bound: BoundQuery,
         algorithm: str = "generic",
         index: str = "sonic",
         order: "Sequence[str] | None" = None,
         binary_order: "Sequence[str] | None" = None,
         engine: str = "auto",
         dynamic_seed: bool = True,
         debug: "bool | None" = None,
         obs=None,
         index_kwargs: "Mapping[str, object] | None" = None,
         parallel: "int | None" = None) -> JoinPlan:
    """The plan stage: a bound query → a fully-resolved :class:`JoinPlan`.

    Runs the hybrid optimizer when ``algorithm="auto"`` or the observer
    is enabled (the optimizer's estimate is part of every profile), pins
    the total attribute order (or the binary atom order), validates the
    index options against the resolved algorithm, and emits one
    :class:`~repro.engine.ir.IndexSpec` per supporting structure.  The
    plan is inert — nothing is built until :func:`prepare`.

    ``algorithm="unified"`` is another name for ``"auto"``: the frontier
    engine runs a cyclic core and its acyclic ears as one Generic Join,
    so the core/ears split of the unified architecture comes to the
    plan ``"auto"`` makes.  ``binary_order`` must name every atom
    exactly once (:class:`~repro.errors.QueryError`), whichever
    algorithm ends up reading it.

    ``parallel`` (default: the ``REPRO_WORKERS`` environment variable;
    0 / unset means single-process) plants a
    :class:`~repro.engine.ir.ShardingSpec` on the plan: the prepare
    stage then partitions the relations into that many shared-memory
    shards on the plan's leading attribute, and execution fans out to a
    worker-process pool (:mod:`repro.parallel`).  ``parallel=1`` is a
    valid degenerate fleet — one worker process, useful as the
    like-for-like baseline when measuring fan-out speedup.
    """
    observer = obs if obs is not None else NULL_OBSERVER
    if algorithm not in ALGORITHMS:
        raise ConfigurationError(
            f"unknown algorithm {algorithm!r}; choose from {ALGORITHMS}"
        )
    if engine not in ENGINES:
        raise ConfigurationError(
            f"unknown engine {engine!r}; choose from {ENGINES}"
        )
    if algorithm == "unified":
        algorithm = "auto"
    query, relations = bound.query, bound.relations
    if (binary_order is not None
            and sorted(binary_order) != sorted(a.alias for a in query.atoms)):
        raise QueryError(
            f"join order {list(binary_order)} does not cover the query atoms")
    kwargs = dict(index_kwargs or {})
    debug_on = resolve_flag(debug, "REPRO_DEBUG")
    if debug_on:
        # as in bind(): debug mode only, so not at import repro
        from repro.analysis.plancheck import check_join_plan, check_plan

    with observer.tracer.span("plan"):
        # the optimizer's estimate is part of every profile (estimated vs
        # actual), so an enabled observer computes it even off the auto path
        choice = stats = None
        route = ""
        decides = algorithm == "auto"
        if decides or observer.enabled:
            with observer.tracer.span("optimize"):
                stats = Statistics.collect(relations.values())
                # the one GYO reduction: the optimizer's acyclicity test
                # reads it
                core = cyclic_core(Hypergraph.from_query(query))
                # an explicit algorithm or a pinned binary order leaves
                # the batch engine nothing to take over
                choice, route = _choose(
                    query, stats, core,
                    engine if decides and binary_order is None else "tuple",
                    observer.enabled)
        requested = algorithm
        if algorithm == "auto":
            algorithm = "binary" if choice.algorithm == "binary" else "generic"
        _validate_index_kwargs(requested, algorithm, index, kwargs)

        if algorithm == "binary":
            result = _binary_plan(query, relations, binary_order, stats,
                                  choice, dynamic_seed)
        else:
            total = tuple(order) if order else connectivity_order(query)
            if debug_on:
                check_plan(query, order=total)
            if algorithm == "generic":
                result = _generic_plan(
                    query, relations, total, index,
                    "tuple" if engine == "tuple" else "batch", kwargs,
                    choice, route, dynamic_seed)
            else:
                result = _baseline_plan(algorithm, query, relations, total,
                                        choice, kwargs, dynamic_seed)
        workers = _resolve_workers(parallel)
        if workers:
            # shard on the leading attribute: every result tuple binds
            # it to exactly one value, so shard results are disjoint
            attribute = (result.total_order[0] if result.total_order
                         else connectivity_order(query)[0])
            result = replace(result, sharding=ShardingSpec(
                workers=workers, attribute=attribute))
        if debug_on:
            check_join_plan(result, relations=relations)
    return result


def _reads_statistics(join_plan: JoinPlan,
                      binary_order: "Sequence[str] | None") -> bool:
    """Does an un-profiled ``join_plan`` depend on relation sizes, and
    not only on the query, the options and the dtype classes?  Only
    where a binary pipeline's atom order was chosen greedily, or where
    the hybrid optimizer compared its estimates — which, with no
    observer enabled, it computes for nothing else (:func:`_choose`)."""
    if join_plan.algorithm == "binary" and binary_order is None:
        return True
    choice = join_plan.choice
    return choice is not None and choice.agm_bound is not None


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

    With a ``cache``, every spec is first looked up under
    ``(relation fingerprint, spec suffix)`` — a hit skips the build
    entirely (and two atoms over the same stored relation with the same
    spec share one build *within* a single prepare, the self-join alias
    case).  A miss builds from one consistent read of the relation
    (:meth:`~repro.storage.relation.Relation.snapshot`) and publishes
    under that read's version, which drops the entries of older
    versions.  Without a cache, every structure is built fresh — the
    cold-path contract of :func:`repro.joins.join`.

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
    use_cache = cache is not None and cache.enabled
    if join_plan.sharding is not None:
        return _prepare_sharded(bound, join_plan, cache if use_cache else None,
                                observer)
    dictionary = cache.dictionary if cache is not None else Dictionary()
    structures: dict[str, object] = {}
    watch = Stopwatch()
    with observer.tracer.span("prepare"):
        for spec in join_plan.index_specs:
            relation = bound.relations[spec.alias]
            suffix = spec.cache_key_suffix()
            key = None
            structure = None
            if use_cache:
                try:
                    key = cache.key_for(relation, suffix)
                except TypeError:
                    key = None  # unhashable option value: uncacheable spec
                if key is not None:
                    structure = cache.get(key)
                if obs_enabled:
                    observer.metrics.inc(
                        "cache.hit" if structure is not None else "cache.miss")
            if structure is None:
                if obs_enabled:
                    build_t0 = Stopwatch.now_ns()
                snapshot = None
                if key is not None:
                    # one consistent read names the version and the rows:
                    # the structure is made from exactly ``count`` rows
                    # and published under exactly that version's key,
                    # even when an extend() landed after the lookup above
                    snapshot = relation.snapshot()
                    key = cache.key_for(relation, suffix, snapshot.version)
                structure = _build_structure(spec, relation, snapshot,
                                             dictionary)
                tuples = len(relation) if snapshot is None else snapshot.count
                if obs_enabled:
                    duration = Stopwatch.now_ns() - build_t0
                    observer.record_build(spec.alias, duration)
                    observer.tracer.add_span(
                        "build_index", build_t0, duration,
                        alias=spec.alias, index=spec.kind, tuples=tuples)
                if key is not None:
                    # compare-and-swap publish: when another thread built
                    # the same key first, adopt its structure so every
                    # concurrent preparer shares one canonical build and
                    # the LRU byte accounting never double-charges
                    built_depth = None
                    if isinstance(structure, ColumnarTrie):
                        # levels appear as joins descend, and the entry's
                        # byte charge follows them.  Hook the deepen
                        # callback *before* publishing, so no descent can
                        # slip between publish and hookup; a CAS loss
                        # discards this structure (no level built yet)
                        # and adopts the winner's, callback included
                        structure.on_deepen = _depth_upgrader(
                            cache, key, tuples, relation.arity)
                        built_depth = structure.built_depth
                    structure = cache.put_if_absent(
                        key, structure, estimate_structure_bytes(
                            structure, tuples, relation.arity),
                        built_depth=built_depth)
            structures[spec.alias] = structure
    build_seconds = watch.lap()
    return PreparedJoin(bound, join_plan, structures, build_seconds)


def _depth_upgrader(cache: IndexCache, key: tuple, tuples: int, arity: int):
    """The deepen callback of a columnar trie: upgrade the cached entry
    in place — new ``built_depth``, re-estimated byte charge."""
    def _on_deepen(trie) -> None:
        cache.upgrade_depth(key, trie.built_depth,
                            estimate_structure_bytes(trie, tuples, arity))
    return _on_deepen


def _prepare_sharded(bound: BoundQuery, join_plan: JoinPlan,
                     cache: "IndexCache | None", observer) -> PreparedJoin:
    """The prepare stage for a sharded plan: partition, don't build.

    Indexes are built *inside the workers* (each over its shard, via
    the same bulk-build prepare path); what the parent prepares — and
    what the session cache holds under the usual fingerprint×options
    key — is the :class:`~repro.parallel.shm.ShardedColumns` transport:
    each relation's column arrays hash-partitioned into shared memory.
    The cache suffix pins the scheme, worker count and the partition
    attribute's *storage position* (renamed views share fingerprints,
    so position — not name — is the stable part), meaning plans that
    shard the same storage the same way share one partitioning.
    """
    # lazy import, same one-directional rationale as _resolve_workers
    from repro.parallel.partition import build_sharded_columns

    obs_enabled = observer.enabled
    use_cache = cache is not None
    sharding = join_plan.sharding
    structures: dict[str, object] = {}
    local: dict[tuple, object] = {}
    watch = Stopwatch()
    with observer.tracer.span("prepare"):
        # every atom ships to the workers — not just index_specs, which
        # for a binary plan omit the first atom (the probe side)
        for atom in join_plan.query.atoms:
            relation = bound.relations[atom.alias]
            position = (relation.schema.position(sharding.attribute)
                        if sharding.attribute in relation.schema else None)
            suffix = ("shards", sharding.scheme, sharding.workers, position)
            key = None
            if use_cache:
                key = cache.key_for(relation, suffix)
                columns = cache.get(key)
                if obs_enabled:
                    observer.metrics.inc(
                        "cache.hit" if columns is not None else "cache.miss")
            else:
                # the cold path still shares one partitioning between
                # self-join aliases of the same storage within this call
                columns = local.get((relation.fingerprint(), suffix))
            if columns is None:
                if obs_enabled:
                    build_t0 = Stopwatch.now_ns()
                try:
                    columns = build_sharded_columns(relation, position,
                                                    sharding.workers)
                except BaseException:
                    for built in local.values():  # the cold path owns these
                        built.close()
                    raise
                if obs_enabled:
                    duration = Stopwatch.now_ns() - build_t0
                    observer.tracer.add_span(
                        "partition_shards", build_t0, duration,
                        alias=atom.alias, workers=sharding.workers,
                        tuples=len(relation))
                if key is not None:
                    published = cache.put_if_absent(
                        key, columns, estimate_structure_bytes(
                            columns, len(relation), relation.arity))
                    if published is not columns:
                        columns.close()  # lost the CAS: adopt the winner
                        columns = published
                else:
                    local[(relation.fingerprint(), suffix)] = columns
            structures[atom.alias] = columns
    build_seconds = watch.lap()
    return PreparedJoin(bound, join_plan, structures, build_seconds,
                        owned_shards=not use_cache)


# ----------------------------------------------------------------------
# Per-algorithm planners
# ----------------------------------------------------------------------

def _choose(query: JoinQuery, stats: Statistics, core: set,
            engine: str, explain: bool) -> tuple[PlanChoice, str]:
    """The hybrid optimizer's choice, made engine-aware: ``(choice, note)``.

    The optimizer sends an acyclic query to the binary pipeline (the
    paper's Table 1); here — the one place that rule meets the engine —
    it goes to the Generic Join instead unless ``engine`` is ``"tuple"``
    (the caller pinned it, the algorithm or the binary side's order):
    the batch engine answers any input as the binary pipeline would,
    repeated rows and string keys included, and builds by one sort per
    relation where a stage table is a Python loop over rows.  ``core``
    is the query's cyclic core, the plan's one GYO reduction.  The AGM
    bound and the binary peak estimate are computed where the decision
    compares them (binary still a candidate) or ``explain`` (an enabled
    observer reports them), and nowhere else.
    """
    optimizer = HybridOptimizer()
    if engine != "tuple" and not core:
        reported = optimizer.decide(query, stats, True) if explain else None
        return PlanChoice(
            "wcoj",
            "acyclic query the columnar Generic Join answers as the "
            "binary pipeline would, building by one sort per relation",
            reported and reported.agm_bound,
            reported and reported.binary_estimate), (
                f"engine={engine}: batch in the binary pipeline's place "
                f"({', '.join(atom.alias for atom in query.atoms)})")
    return optimizer.decide(query, stats, not core, estimate=explain), ""


def _noted(choice, note: str):
    """``choice`` with the engine note appended to its reason."""
    if choice is None or not note:
        return choice
    return replace(choice, reason=f"{choice.reason}; {note}")


def _generic_structure(index: str, engine: str, kwargs: dict,
                       ) -> tuple[str, dict]:
    """``(kind, options)`` of the structure a generic plan builds per atom.

    The batch driver reads columnar tries and nothing else — Sonic's
    levels are Python lists, readable one key at a time — so under it
    the ``index=`` kind is not built and its options have nothing to
    configure (they stay accepted: the engine is a property of the data,
    and the same call must work when it resolves to tuple).
    """
    if engine == "batch":
        return COLUMNAR_KIND, {}
    options = dict(kwargs.get("index_options") or {})
    if index == "sonic":
        options["bucket_size"] = kwargs.get("sonic_bucket_size", 8)
        options["overallocation"] = kwargs.get("sonic_overallocation", 2.0)
    return index, options


def _generic_plan(query: JoinQuery, relations: Mapping[str, Relation],
                  total: tuple[str, ...], index: str, engine: str,
                  kwargs: dict, choice, note: str,
                  dynamic_seed: bool) -> JoinPlan:
    """A Generic Join over ``query`` under the *resolved* ``engine``.

    Under the batch engine an attribute with an object column in any of
    the query's atoms is joined by dictionary code, every column of it:
    each atom's spec names the storage positions its trie codes (the
    ``coded`` option), which keys the cache apart from a trie over the
    same columns uncoded.
    """
    kind, options = _generic_structure(index, engine, kwargs)
    coded = set()
    if engine == "batch":
        coded = {attribute for atom in query.atoms
                 for attribute, dtype in zip(
                     atom.attributes, relations[atom.alias].dtype_classes())
                 if dtype == "object"}
    specs = []
    for atom in query.atoms:
        positions = tuple(position for position, attribute
                          in enumerate(atom.attributes) if attribute in coded)
        specs.append(_structure_spec(
            relations[atom.alias], atom.alias, kind, total,
            {"coded": positions} if positions else options))
    return JoinPlan(query=query, algorithm="generic", output=total,
                    engine=engine, index=index, total_order=total,
                    index_specs=tuple(specs), dynamic_seed=dynamic_seed,
                    choice=_noted(choice, note), engine_note=note)


def _binary_plan(query: JoinQuery, relations: Mapping[str, Relation],
                 binary_order: "Sequence[str] | None", stats, choice,
                 dynamic_seed: bool) -> JoinPlan:
    """The whole query as one hash pipeline probing in the pinned order,
    else the greedy one."""
    if binary_order is None:
        if stats is None:
            stats = Statistics.collect(relations.values())
        binary_order = greedy_join_order(query, stats)
    stages, output_attrs = plan_pipeline(query, relations, binary_order)
    specs = tuple(
        IndexSpec(alias=stage["alias"], kind=HASHTABLE_KIND,
                  attribute_order=stage["key_attrs"] + stage["payload_attrs"],
                  permutation=(stage["key_positions"]
                               + stage["payload_positions"]),
                  key_arity=len(stage["key_attrs"]))
        for stage in stages
    )
    return JoinPlan(query=query, algorithm="binary",
                    output=tuple(output_attrs),
                    atom_order=tuple(binary_order), index_specs=specs,
                    dynamic_seed=dynamic_seed, choice=choice)


def _baseline_plan(algorithm: str, query: JoinQuery,
                   relations: Mapping[str, Relation], total: tuple[str, ...],
                   choice, kwargs: dict, dynamic_seed: bool) -> JoinPlan:
    """A Hash-Trie Join, Leapfrog Triejoin or recursive (Alg. 1) plan."""
    if algorithm == "recursive":
        specs = tuple(
            IndexSpec(alias=atom.alias, kind=TUPLESET_KIND,
                      attribute_order=atom.attributes,
                      permutation=tuple(range(atom.arity)))
            for atom in query.atoms
        )
    else:
        if algorithm == "hashtrie":
            kind, options = "hashtrie", {
                "lazy": bool(kwargs.get("lazy", True)),
                "singleton_pruning": bool(kwargs.get("singleton_pruning",
                                                     True)),
            }
        else:
            # "sorted": force the trie's sort during prepare (LFTJ seeks
            # need it ordered up front); distinguishes these specs from a
            # generic join over index="sortedtrie", whose sort lazily
            # lands in the probe phase
            kind, options = "sortedtrie", {"sorted": True}
        specs = tuple(
            _structure_spec(relations[atom.alias], atom.alias, kind, total,
                            options)
            for atom in query.atoms
        )
    return JoinPlan(query=query, algorithm=algorithm, output=total,
                    total_order=total, index_specs=specs,
                    dynamic_seed=dynamic_seed, choice=choice)


def _structure_spec(relation: Relation, alias: str, kind: str,
                    total: Sequence[str],
                    options: "Mapping[str, object] | None") -> IndexSpec:
    """An :class:`IndexSpec` for a registry-index structure under ``total``.

    Mirrors :class:`~repro.core.adapter.IndexAdapter`'s order projection
    so the spec's permutation is exactly the one the built adapter will
    apply (and the one the cache keys on).
    """
    attribute_order = tuple(a for a in total if a in relation.schema)
    if len(attribute_order) != relation.arity:
        # same defect, same exception as IndexAdapter would raise at
        # build time — the plan stage just surfaces it earlier
        missing = set(relation.schema.attributes) - set(total)
        raise SchemaError(
            f"total order {list(total)} does not cover attributes "
            f"{sorted(missing)} of relation {relation.name!r}"
        )
    return IndexSpec(alias=alias, kind=kind, attribute_order=attribute_order,
                     permutation=relation.schema.permutation_to(
                         attribute_order),
                     options=canonical_options(options))


def _validate_index_kwargs(requested: str, resolved: str, index: str,
                           kwargs: Mapping[str, object]) -> None:
    """Reject index options the chosen algorithm cannot honor.

    ``requested`` is what the caller asked for (possibly ``"auto"``),
    ``resolved`` the concrete algorithm; ``"auto"`` is validated against
    the Generic Join's option set (see module docstring).  Where a
    Generic Join may be planned, the options must also fit the
    ``index`` kind: Sonic's only with Sonic.
    """
    if not kwargs:
        return
    allowed = _ALLOWED_OPTIONS["generic" if requested == "auto"
                               else resolved]
    unknown = sorted(set(kwargs) - allowed)
    if unknown:
        raise ConfigurationError(
            f"algorithm {resolved!r} cannot honor index option(s) "
            f"{unknown}; it accepts {sorted(allowed) or 'none'}"
        )
    if resolved != "generic":
        return
    if (requested != "auto" and index != "sonic"
            and any(k.startswith("sonic_") for k in kwargs)):
        sonic_only = sorted(k for k in kwargs if k.startswith("sonic_"))
        raise ConfigurationError(
            f"index {index!r} cannot honor Sonic option(s) {sonic_only}; "
            "they apply only with index='sonic'"
        )


# ----------------------------------------------------------------------
# Structure builders (the prepare stage's workhorses)
# ----------------------------------------------------------------------

def _build_structure(spec: IndexSpec, relation: Relation,
                     snapshot: "Snapshot | None",
                     dictionary: Dictionary) -> object:
    """Build the structure a spec describes, from ``relation``'s rows.

    ``snapshot`` pins the build to exactly the rows the cache key names
    (the first ``count``, whatever has been appended since); without one
    — the cold path, nothing keyed — the relation is read as it is.
    ``dictionary`` encodes the columns a columnar spec codes.

    A stage table and a columnar trie keep every copy of a repeated row.
    Every other structure holds a set, and the tuple drivers that read
    it would answer a set: they refuse a relation that repeats a row
    instead, found where the build has already dropped the repeat.
    """
    tuples = len(relation) if snapshot is None else snapshot.count
    rows = islice(relation.rows, tuples)
    if spec.kind == HASHTABLE_KIND:
        key_arity = spec.key_arity or 0
        return build_stage_table(rows, spec.permutation[:key_arity],
                                 spec.permutation[key_arity:])
    if spec.kind == COLUMNAR_KIND:
        columns = (relation.columns() if snapshot is None
                   else snapshot.columns)
        coded = dict(spec.options).get("coded", ())
        trie = ColumnarTrie(tuple(
            dictionary.encode(columns[i]) if i in coded else columns[i]
            for i in spec.permutation))
        trie.decoders = tuple(dictionary if i in coded else None
                              for i in spec.permutation)
        return trie
    if spec.kind == TUPLESET_KIND:
        structure = frozenset(rows)
    else:
        options = dict(spec.options)
        presort = options.pop("sorted", False)
        if spec.kind == "sonic":
            config = SonicConfig.for_tuples(
                max(tuples, 1),
                bucket_size=options.pop("bucket_size", 8),
                overallocation=options.pop("overallocation", 2.0),
            )
            structure = make_index("sonic", relation.arity, config=config,
                                   **options)
        else:
            structure = make_index(spec.kind, relation.arity, **options)
        IndexAdapter(relation, structure, spec.attribute_order).build(
            snapshot)
        if presort:
            structure.rows  # force the SortedTrie sort inside the build phase
    if len(structure) < tuples:
        raise QueryError(
            f"relation {relation.name!r} repeats a row, and the tuple "
            f"drivers join sets ({spec.kind!r} holds each row once); the "
            "default engine (engine='auto') counts every copy")
    return structure

