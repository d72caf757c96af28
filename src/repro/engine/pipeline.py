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
* :func:`prepare` — turn every spec of a frontier plan into a built
  columnar trie, going through a :class:`~repro.engine.cache.IndexCache`
  when one is given (the :class:`~repro.engine.session.Session` warm
  path) or building fresh when not (the :func:`repro.joins.join` cold
  path, preserving the paper's build-included timing semantics, §5.15).
  Output: :class:`~repro.engine.prepared.PreparedJoin`, executable many
  times.

The serving layers — :func:`prepare`, the session, and every sharded
plan — hold frontier plans only (:func:`servable`); a plan for one of
the paper's tuple drivers raises
:class:`~repro.errors.ConfigurationError` there, and runs through
:func:`repro.joins.join`, whose driver builds its own structures.

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
from functools import partial

from repro.core.envflag import resolve_flag
from repro.engine.cache import IndexCache
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
from repro.joins.binary import plan_pipeline
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
    like-for-like baseline when measuring fan-out speedup.  Only a
    frontier plan shards (:func:`servable`); any other raises
    :class:`~repro.errors.ConfigurationError` here, before anything is
    partitioned or forked.
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
            require_servable(result)
            # shard on the leading attribute: every result tuple binds
            # it to exactly one value, so shard results are disjoint
            result = replace(result, sharding=ShardingSpec(
                workers=workers, attribute=result.total_order[0]))
        if debug_on:
            check_join_plan(result, relations=relations)
    return result


def servable(join_plan: JoinPlan) -> bool:
    """Can a serving layer — a :class:`~repro.engine.session.Session`,
    :func:`prepare`, a sharded plan — hold ``join_plan``?  Only a
    frontier plan: the Generic Join on the batch engine over columnar
    tries.  The paper's tuple drivers run cold through
    :func:`repro.joins.join`, building their own structures."""
    return join_plan.algorithm == "generic" and join_plan.engine == "batch"


def require_servable(join_plan: JoinPlan) -> None:
    """Raise :class:`~repro.errors.ConfigurationError` unless
    :func:`servable`."""
    if not servable(join_plan):
        what = join_plan.algorithm + (f"/{join_plan.engine}"
                                      if join_plan.engine else "")
        raise ConfigurationError(
            f"a {what} plan runs only cold: Session, prepare() and "
            "parallel=K serve frontier plans (algorithm 'generic' on the "
            "batch engine, which engine='auto' resolves to); run the "
            "paper's tuple drivers through a plain join() — "
            'join(engine="tuple") for its Generic Join — without parallel')


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

    Only a frontier plan prepares (:func:`servable`): the structures
    are one columnar trie per atom — or, for a sharded plan, each
    relation's shard partitioning — and any other plan raises
    :class:`~repro.errors.ConfigurationError` naming the cold door,
    :func:`repro.joins.join`.

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
    require_servable(join_plan)
    return _prepare(bound, join_plan, cache, obs)


def _prepare(bound: BoundQuery, join_plan: JoinPlan,
             cache: "IndexCache | None", obs) -> PreparedJoin:
    """:func:`prepare` for a plan already known to be servable (checked
    where it was made, so a session's cached plan pays no check).

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
    """
    observer = obs if obs is not None else NULL_OBSERVER
    obs_enabled = observer.enabled
    if cache is not None and not cache.enabled:
        cache = None
    sharding = join_plan.sharding
    if sharding is None:
        dictionary = cache.dictionary if cache is not None else Dictionary()
        suffix_of = IndexSpec.cache_key_suffix
        build = partial(_build_trie, dictionary=dictionary)

        def record(spec: IndexSpec, start_ns: int, tuples: int) -> None:
            observer.record_build(spec.alias, start_ns, index=spec.kind,
                                  tuples=tuples)
    else:
        # lazy import, same one-directional rationale as _resolve_workers
        from repro.parallel.partition import build_sharded_columns

        def suffix_of(spec: IndexSpec) -> tuple:
            return ("shards", sharding.scheme, sharding.workers,
                    _storage_position(spec, sharding.attribute),
                    spec.options)

        def build(spec: IndexSpec, snapshot: Snapshot):
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
                sharding.workers)

        def record(spec: IndexSpec, start_ns: int, tuples: int) -> None:
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
                    structure = build(spec, snapshot)
                    if obs_enabled:
                        record(spec, start_ns, snapshot.count)
                    if cache is not None:
                        structure = _publish(
                            cache,
                            cache.key_for(relation, suffix, snapshot.version),
                            structure)
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
    structure.on_deepen = _depth_upgrader(cache, key)
    return cache.put_if_absent(key, structure, structure.memory_usage(),
                               built_depth=structure.built_depth)


def _depth_upgrader(cache: IndexCache, key: tuple):
    """The deepen callback of a columnar trie: upgrade the cached entry
    in place — new ``built_depth``, the trie's new byte footprint."""
    def _on_deepen(trie) -> None:
        cache.upgrade_depth(key, trie.built_depth, trie.memory_usage())
    return _on_deepen


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
# The structure builder (the prepare stage's workhorse)
# ----------------------------------------------------------------------

def _build_trie(spec: IndexSpec, snapshot: Snapshot,
                dictionary: Dictionary) -> ColumnarTrie:
    """Build the columnar trie a spec describes from one consistent
    read of its relation — exactly the rows the cache key names.

    ``dictionary`` encodes the columns the spec codes.  The trie keeps
    every copy of a repeated row.
    """
    columns = snapshot.columns
    coded = dict(spec.options).get("coded", ())
    trie = ColumnarTrie(tuple(
        dictionary.encode(columns[i]) if i in coded else columns[i]
        for i in spec.permutation))
    trie.decoders = tuple(dictionary if i in coded else None
                          for i in spec.permutation)
    return trie
