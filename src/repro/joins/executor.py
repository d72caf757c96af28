"""The top-level join API — the runtime analogue of the paper's Listing 1.

The C++ framework pairs relations with index adapters and instantiates a
fully-inlined join at compile time; :func:`join` does the same wiring at
runtime, through one of two doors chosen from the call's arguments
alone (:func:`door_request`):

* the **frontier** — the staged engine pipeline
  (:mod:`repro.engine.pipeline`): **bind** each atom to its relation,
  **plan** the order and index specs into a
  :class:`~repro.engine.ir.JoinPlan`, **prepare** one columnar trie per
  atom (timed — ad-hoc index build is part of every WCOJ run, §5.15),
  and **execute** the batch Generic Join;
* the **paper's door** — ``engine="tuple"``, ``binary`` / ``hashtrie``
  / ``leapfrog`` / ``recursive``, or a pinned ``binary_order``: bind,
  then the driver the request names (``auto`` lets the hybrid optimizer
  pick binary or the tuple Generic Join), which builds its own
  structures.  No plan describes it, and nothing serves it warm.

Each ``join()`` call is a one-shot cold session: no index cache, so
the ad-hoc build is part of every reported time, as in the seed's
monolithic implementation.  For repeated queries over the same
relations, use :class:`repro.engine.Session`, whose prepared frontier
joins skip the rebuild.

>>> from repro import join, Relation, parse_query
>>> edges = Relation("E", ("src", "dst"), [(0, 1), (1, 2), (2, 0)])
>>> q = parse_query("E1=E(a,b), E2=E(b,c), E3=E(c,a)")
>>> join(q, {"E1": edges, "E2": edges, "E3": edges}).count
3
>>> join(q, {"E1": edges, "E2": edges, "E3": edges}, index="sonic",
...      engine="tuple").metrics.index          # the paper's configuration
'sonic'

Algorithms: ``"generic"`` (Generic Join over any registered index),
``"binary"`` (pipelined hash joins), ``"hashtrie"`` (Umbra-style),
``"leapfrog"`` (LFTJ), or ``"auto"`` (the hybrid optimizer chooses
binary vs generic, §6/[22]; unless ``engine="tuple"`` or a pinned
``binary_order`` sends it to the paper's door, an acyclic query goes
generic too).

This module also remains the home of the shared building blocks the
pipeline stages (and the test suite) use directly:
:func:`resolve_relations`, :func:`build_adapters`,
:func:`attach_profile`, :func:`resolve_order`, :func:`police_options`,
and the ``ALGORITHMS`` / ``ENGINES`` domains.
"""

from __future__ import annotations

import json
from collections.abc import Mapping, Sequence
from pathlib import Path

from repro.core.adapter import IndexAdapter
from repro.core.config import SonicConfig
from repro.core.envflag import resolve_flag, resolve_str
from repro.errors import ConfigurationError, QueryError
from repro.indexes.registry import make_index
from repro.joins.results import JoinResult, Stopwatch
from repro.obs.observer import JoinObserver, NULL_OBSERVER, resolve_observer
from repro.obs.profile import build_profile
from repro.planner.cardinality import Statistics
from repro.planner.hypergraph import Hypergraph
from repro.planner.optimizer import HybridOptimizer, cyclic_core
from repro.planner.qptree import connectivity_order
from repro.planner.query import Atom, JoinQuery
from repro.storage.catalog import Catalog
from repro.storage.relation import Relation

#: the join drivers, and the optimizer's pick: ``"auto"``, also named
#: ``"unified"`` (the plan stage resolves it to a driver)
ALGORITHMS = ("generic", "binary", "hashtrie", "leapfrog", "recursive",
              "unified", "auto")

#: execution models for the Generic Join driver: tuple-at-a-time (the
#: paper's Alg. 1 rendering), batch (frontier-at-a-time over columnar
#: tries), or auto (the default, which resolves to batch)
ENGINES = ("tuple", "batch", "auto")

#: the paper's drivers besides its Generic Join; with the tuple engine,
#: what only :func:`join`'s door runs
TUPLE_DRIVERS = ("binary", "hashtrie", "leapfrog", "recursive")

#: the Generic Join's index options — the frontier accepts them and
#: builds no index they configure; the tuple engine builds with them
GENERIC_OPTIONS = frozenset({"sonic_overallocation", "sonic_bucket_size",
                             "index_options"})
#: index options each driver at the door honors; anything else raises
#: ConfigurationError (the seed swallowed them silently)
_DOOR_OPTIONS = {
    "generic": GENERIC_OPTIONS,
    "hashtrie": frozenset({"lazy", "singleton_pruning"}),
    "binary": frozenset(),
    "leapfrog": frozenset(),
    "recursive": frozenset(),
}


def attach_profile(query, result: JoinResult, observer, choice, order,
                   engine: "str | None" = None,
                   trace_out: "str | None" = None) -> JoinResult:
    """Fold the observer into ``result.profile`` (enabled runs only) and
    write the Chrome trace if ``trace_out``/``REPRO_TRACE_OUT`` asks."""
    if not observer.enabled:
        return result
    profile = build_profile(
        query=str(query),
        algorithm=result.metrics.algorithm,
        index=result.metrics.index or "none",
        order=order,
        metrics=result.metrics,
        observer=observer,
        engine=engine,
        choice=choice,
    )
    result.profile = profile
    out = resolve_str(trace_out, "REPRO_TRACE_OUT")
    if out:
        Path(out).write_text(
            json.dumps(profile.to_chrome_trace(), indent=2) + "\n")
    return result


def resolve_relations(query: JoinQuery,
                      source: "Catalog | Mapping[str, Relation]",
                      ) -> dict[str, Relation]:
    """Map each atom alias to its relation, viewed through query attributes.

    A mapping may be keyed by alias or by relation name; a catalog is
    looked up by the atom's relation name (aliases share the physical
    relation, the usual self-join case).  Each resolved relation is a
    zero-copy :meth:`~repro.storage.relation.Relation.renamed` view whose
    schema carries the atom's query attributes — the form every join
    driver expects.  (This is the work of the engine's **bind** stage;
    the view shares its backing rows and version counter with the stored
    relation, so its fingerprint doubles as the cache identity.)
    """
    resolved: dict[str, Relation] = {}
    for atom in query.atoms:
        if isinstance(source, Catalog):
            relation = source.get(atom.relation)   # raises naming the catalog
        else:
            relation = source_relation(source, atom)
            if relation is None:
                raise QueryError(
                    f"no relation for atom {atom} (keys: {sorted(source)})"
                )
        if relation.arity != atom.arity:
            raise QueryError(
                f"atom {atom} has arity {atom.arity} but relation "
                f"{relation.name!r} has arity {relation.arity}"
            )
        resolved[atom.alias] = relation.renamed(atom.attributes, name=atom.alias)
    return resolved


def source_relation(source: "Catalog | Mapping[str, Relation]",
                    atom: Atom) -> "Relation | None":
    """The stored relation ``atom`` resolves to in ``source`` (``None``:
    none does) — :func:`resolve_relations`' lookup rule, without the
    view."""
    if isinstance(source, Catalog):
        return source.get(atom.relation) if atom.relation in source else None
    if atom.alias in source:
        return source[atom.alias]
    return source.get(atom.relation)


def refuse_repeats(relation: Relation, structure, kind: str) -> None:
    """The tuple drivers' one duplicate check, made where each builds.

    ``structure`` (anything with a ``len``) holds ``relation``'s rows as
    a set; had the relation stored a row twice, the driver would answer
    the set where the default engine answers the bag, so it refuses.
    """
    if len(structure) < len(relation):
        raise QueryError(
            f"relation {relation.name!r} repeats a row, and the tuple "
            f"drivers join sets ({kind!r} holds each row once); the "
            "default engine (engine='auto') counts every copy")


def build_adapters(query: JoinQuery, relations: Mapping[str, Relation],
                   order: Sequence[str], index: str = "sonic",
                   sonic_overallocation: float = 2.0,
                   sonic_bucket_size: int = 8,
                   index_options: Mapping[str, object] | None = None,
                   obs=None) -> dict[str, IndexAdapter]:
    """One freshly-built index adapter per atom (the WCOJ build phase).

    With an enabled observer, each adapter's build is timed individually
    (``profile.build_breakdown``) and recorded as a ``build_index`` span.
    A relation that repeats a row raises
    :class:`~repro.errors.QueryError` (:func:`refuse_repeats`).
    """
    adapters: dict[str, IndexAdapter] = {}
    options = dict(index_options or {})
    observer = obs if obs is not None else NULL_OBSERVER
    obs_enabled = observer.enabled
    for atom in query.atoms:
        if obs_enabled:
            adapter_t0 = Stopwatch.now_ns()
        relation = relations[atom.alias]
        if index == "sonic":
            config = SonicConfig.for_tuples(
                max(len(relation), 1),
                bucket_size=sonic_bucket_size,
                overallocation=sonic_overallocation,
            )
            idx = make_index("sonic", relation.arity, config=config, **options)
        else:
            idx = make_index(index, relation.arity, **options)
        adapter = IndexAdapter(relation, idx, order)
        adapter.build()
        refuse_repeats(relation, idx, index)
        adapters[atom.alias] = adapter
        if obs_enabled:
            observer.record_build(atom.alias, adapter_t0, index=index,
                                  tuples=len(relation))
    return adapters


def check_names(algorithm: str, engine: str) -> None:
    """Raise :class:`~repro.errors.ConfigurationError` on an unknown
    ``algorithm`` or ``engine``."""
    if algorithm not in ALGORITHMS:
        raise ConfigurationError(
            f"unknown algorithm {algorithm!r}; choose from {ALGORITHMS}")
    if engine not in ENGINES:
        raise ConfigurationError(
            f"unknown engine {engine!r}; choose from {ENGINES}")


def door_request(algorithm: str, engine: str,
                 binary_order: "Sequence[str] | None") -> bool:
    """Does a request go to the paper's door rather than the frontier?

    Decided from the call's arguments alone — no statistics, no GYO
    reduction: the tuple engine, one of :data:`TUPLE_DRIVERS`, or a
    pinned ``binary_order`` (the frontier never reads one).
    """
    return (engine == "tuple" or algorithm in TUPLE_DRIVERS
            or binary_order is not None)


def door_refusal(algorithm: str, engine: str) -> ConfigurationError:
    """The error a serving layer — :func:`repro.engine.plan`, a
    :class:`~repro.engine.session.Session`, ``parallel=K`` — raises for
    a :func:`door_request`."""
    return ConfigurationError(
        f"algorithm={algorithm!r} engine={engine!r} asks for one of the "
        "paper's tuple drivers, which run only cold: Session, prepare() "
        "and parallel=K serve frontier plans (algorithm 'generic' on the "
        "batch engine, which engine='auto' resolves to); run the paper's "
        "tuple drivers through a plain join() — join(engine=\"tuple\") for "
        "its Generic Join — without parallel")


def police_options(algorithm: str, index: str, kwargs: Mapping[str, object],
                   allowed: frozenset) -> None:
    """Reject index options ``algorithm`` cannot honor.

    ``allowed`` is its option set (``"auto"`` is policed against the
    Generic Join's, the algorithm the options would apply to if chosen;
    when the optimizer picks the binary pipeline instead they are
    unused, as in the seed).  A Generic Join asked for by name must also
    fit its ``index``: Sonic's options only with Sonic.
    """
    unknown = sorted(set(kwargs) - allowed)
    if unknown:
        raise ConfigurationError(
            f"algorithm {algorithm!r} cannot honor index option(s) "
            f"{unknown}; it accepts {sorted(allowed) or 'none'}")
    sonic_only = sorted(k for k in kwargs if k.startswith("sonic_"))
    if algorithm == "generic" and index != "sonic" and sonic_only:
        raise ConfigurationError(
            f"index {index!r} cannot honor Sonic option(s) {sonic_only}; "
            "they apply only with index='sonic'")


def resolve_order(query: JoinQuery, order: "Sequence[str] | None",
                  debug: bool) -> tuple[str, ...]:
    """The total attribute order — ``order``, else the connectivity
    order — checked once for every driver.

    A missing, repeated or unknown attribute raises
    :class:`~repro.errors.QueryError` naming it (in debug mode the plan
    validator's RA302 :class:`~repro.errors.PlanValidationError` first).
    """
    total = tuple(order) if order else connectivity_order(query)
    if debug:
        # imported where it is called: its package loads the whole
        # static analyzer, which a process without debug mode never needs
        from repro.analysis.plancheck import check_plan

        check_plan(query, order=total)
    attributes = query.attributes
    missing = [a for a in attributes if a not in total]
    repeated = sorted({a for a in total if total.count(a) > 1})
    unknown = sorted(set(total) - set(attributes))
    if missing or repeated or unknown:
        raise QueryError(
            f"total order {list(total)} is not a permutation of the query "
            f"attributes {list(attributes)}: missing {missing}, repeated "
            f"{repeated}, unknown {unknown}")
    return total


def _door(bound, algorithm: str, index: str,
          order: "Sequence[str] | None",
          binary_order: "Sequence[str] | None", engine: str,
          dynamic_seed: bool, debug: "bool | None", observer,
          kwargs: dict, parallel: "int | None", materialize: bool,
          trace_out: "str | None") -> JoinResult:
    """The paper's door: one of its drivers, built cold.

    The drivers are the tuple Generic Join over a registry index and
    :data:`TUPLE_DRIVERS`; ``auto`` / ``unified`` picks between the
    binary pipeline (pinned or greedy order) and the tuple Generic Join
    by the hybrid optimizer (Table 1).  The ``plan`` span holds that
    choice (its ``optimize`` span) and the total order; each driver then
    builds its own structures — a registry index per atom through
    :func:`build_adapters`, hash tables, sorted tries or row sets —
    inside the ``prepare`` span, one ``build_index`` span per built
    atom, with the build time on ``metrics.build_seconds`` (§5.15's
    build-included timing).  Nothing here is cached or sharded.
    """
    # imported here: hashtrie_join imports this module's build_adapters
    from repro.joins.binary import BinaryHashJoin
    from repro.joins.generic_join import GenericJoin
    from repro.joins.hashtrie_join import HashTrieJoin
    from repro.joins.leapfrog import LeapfrogTrieJoin
    from repro.joins.recursive import RecursiveJoin
    from repro.parallel.pool import resolve_workers

    check_names(algorithm, engine)
    if algorithm == "unified":
        algorithm = "auto"
    query, relations = bound.query, bound.relations
    if binary_order is not None:
        if sorted(binary_order) != sorted(a.alias for a in query.atoms):
            raise QueryError(f"join order {list(binary_order)} does not "
                             "cover the query atoms")
        if algorithm not in ("binary", "auto"):
            raise ConfigurationError(
                f"algorithm {algorithm!r} cannot honor binary_order; only "
                "'binary' and 'auto' run the binary pipeline it pins")
        if algorithm == "auto" and engine == "batch":
            raise ConfigurationError(
                f"algorithm {algorithm!r} cannot honor binary_order under "
                "engine='batch', which has no binary pipeline")
    if resolve_workers(parallel):
        raise door_refusal(algorithm, engine)
    police_options(algorithm, index, kwargs, _DOOR_OPTIONS[
        "generic" if algorithm == "auto" else algorithm])
    choice = stats = None
    with observer.tracer.span("plan"):
        # the optimizer's estimate is part of every profile (estimated vs
        # actual), so an enabled observer computes it off the auto path
        if algorithm == "auto" or observer.enabled:
            with observer.tracer.span("optimize"):
                stats = Statistics.collect(relations.values())
                core = cyclic_core(Hypergraph.from_query(query))
                choice = HybridOptimizer().decide(
                    query, stats, not core, estimate=observer.enabled)
        if algorithm == "auto":
            algorithm = "binary" if choice.algorithm == "binary" else "generic"
        if algorithm != "binary":
            order = resolve_order(query, order,
                                  resolve_flag(debug, "REPRO_DEBUG"))
    with observer.tracer.span("prepare"):
        if algorithm == "binary":
            driver = BinaryHashJoin(query, relations, order=binary_order,
                                    stats=stats, obs=observer)
            driver.build()
            order = driver.order
        elif algorithm == "hashtrie":
            driver = HashTrieJoin(query, relations, order=order,
                                  obs=observer, **kwargs)
        elif algorithm == "leapfrog":
            driver = LeapfrogTrieJoin(query, relations, order=order,
                                      obs=observer)
            driver.build()
        elif algorithm == "recursive":
            driver = RecursiveJoin(query, relations, order=order,
                                   obs=observer)
        else:
            watch = Stopwatch()
            adapters = build_adapters(query, relations, order, index=index,
                                      obs=observer, **kwargs)
            driver = GenericJoin(query, adapters, order=order,
                                 dynamic_seed=dynamic_seed, obs=observer)
            driver.metrics.index = index
            driver.metrics.build_seconds = watch.lap()
    result = driver.run(materialize=materialize)
    return attach_profile(query, result, observer, choice, order,
                          engine="tuple" if algorithm == "generic" else None,
                          trace_out=trace_out)


def join(query: "JoinQuery | str",
         source: "Catalog | Mapping[str, Relation]",
         algorithm: str = "generic",
         index: str = "sonic",
         order: Sequence[str] | None = None,
         materialize: bool = False,
         dynamic_seed: bool = True,
         binary_order: Sequence[str] | None = None,
         engine: str = "auto",
         debug: "bool | None" = None,
         profile: "bool | None" = None,
         obs: "JoinObserver | None" = None,
         trace_out: "str | None" = None,
         parallel: "int | None" = None,
         **index_kwargs) -> JoinResult:
    """Plan, build and execute a join query; returns a :class:`JoinResult`.

    Parameters mirror the paper's experimental axes: ``algorithm`` picks
    the join driver, ``index`` the supporting structure for the Generic
    Join, ``order`` overrides the total attribute order (the default is
    the connectivity-aware heuristic of
    :func:`repro.planner.qptree.connectivity_order`; pass
    ``repro.planner.total_order(query)`` for the paper's raw QP-tree
    order; it must name every query attribute exactly once, else
    :class:`~repro.errors.QueryError` names the missing, repeated or
    unknown ones), ``dynamic_seed`` ablates the AGM-guided anchor
    selection, and ``binary_order`` pins the binary pipeline's join
    order (Fig 1's order-sensitivity axis): it must name every atom
    exactly once, and only ``binary`` and ``auto`` / ``unified`` off
    the batch engine honor it (any other algorithm raises
    :class:`~repro.errors.ConfigurationError`).

    ``engine`` selects the Generic Join execution model: ``"auto"``
    (the default) and ``"batch"`` run frontier-at-a-time
    (:class:`~repro.joins.batch.GenericJoinBatch`: the binding frontier
    carried as int64 columns over a
    :class:`~repro.indexes.columnar.ColumnarTrie` per atom — the one
    structure it reads, so ``index`` and its options are accepted but
    that index is not built); ``"tuple"`` runs the paper's
    tuple-at-a-time Alg. 1 over ``index`` — the configuration every
    figure and table of the reproduction measures; name it to get it.
    Relations are bags, and the frontier engine answers them as bags:
    a row stored twice is counted twice, and a column of strings,
    floats or integers beyond int64 is joined by dictionary code
    (materialised rows carry the stored values).  The tuple drivers —
    ``engine="tuple"``, ``"hashtrie"``, ``"leapfrog"``, ``"recursive"``
    — join sets, and raise :class:`~repro.errors.QueryError` naming a
    relation that repeats a row; ``"binary"`` joins bags.  The explicit
    non-generic algorithms have no batch rendering and ignore the knob.
    ``"auto"`` does not, and ``"unified"`` is another name for it: on
    the frontier (``engine`` ``"auto"`` or ``"batch"``, no
    ``binary_order``) every query runs on the batch Generic Join — an
    acyclic one where the paper's hybrid optimizer would send it to the
    binary hash pipeline, since its build is one sort per relation
    rather than a Python loop per row, and a cyclic core with its
    acyclic ears; ``PlanChoice.reason`` and ``describe()`` say so.  At
    the paper's door (``engine="tuple"`` or a pinned ``binary_order``)
    the hybrid optimizer picks between the binary pipeline and the
    tuple Generic Join, as in Table 1.

    ``**index_kwargs`` carries per-algorithm index options
    (``sonic_bucket_size`` / ``sonic_overallocation`` / ``index_options``
    for the Generic Join, ``lazy`` / ``singleton_pruning`` for
    Hash-Trie Join).  Options the chosen algorithm cannot honor raise
    :class:`~repro.errors.ConfigurationError` before anything is built
    — the seed silently swallowed them.

    ``debug`` (default: the ``REPRO_DEBUG`` environment variable) runs the
    static plan validator (:mod:`repro.analysis.plancheck`) on the
    total order and, on the frontier, on the plan — including the
    RA306/RA307 IR checks — before execution, raising
    :class:`~repro.errors.PlanValidationError` instead of silently
    executing a malformed plan.

    ``parallel`` (default: the ``REPRO_WORKERS`` environment variable;
    0 / unset keeps the single-process path) runs a frontier plan as
    ``K`` hash-sharded worker processes over shared-memory columns
    (:mod:`repro.parallel`); a request for the paper's door raises
    :class:`~repro.errors.ConfigurationError` instead, before anything
    is partitioned or forked.  The plan gains a
    :class:`~repro.engine.ir.ShardingSpec` on its leading attribute,
    relations are partitioned into ``/dev/shm`` during prepare, and
    each worker runs the same staged pipeline over its shard before
    the results are merged deterministically.  Counts and rows are
    identical to the single-process run.  The workers come from a
    process-wide idle pool (forked on first use, kept until interpreter
    exit); the shared memory is released before this function returns
    (use :meth:`repro.engine.Session.prepare` with ``parallel=K`` to
    keep the partitioning, and the workers' per-shard indexes, warm).

    ``profile`` (default: the ``REPRO_PROFILE`` environment variable)
    runs the join under a live :class:`~repro.obs.observer.JoinObserver`
    and attaches the EXPLAIN ANALYZE report to ``result.profile`` (a
    :class:`~repro.obs.profile.JoinProfile`: per-level candidates /
    survivors / seed choices / time, the hybrid optimizer's estimated vs
    actual cardinalities, counters, spans).  ``obs`` threads a caller-
    supplied observer instead (e.g. a shared metrics registry, or
    ``JoinObserver.disabled()`` to pin profiling off whatever
    ``REPRO_PROFILE`` says);
    ``trace_out`` (default: ``REPRO_TRACE_OUT``) additionally writes the
    span trace as Chrome ``trace_event`` JSON to that path.

    Every call runs cold — **bind → plan → prepare(no cache) →
    execute** — so the ad-hoc index build is part of the reported
    timing, exactly as the paper measures (§5.15).  The frontier
    prepares its columnar tries; at the paper's door the driver builds
    its own structures inside the ``prepare`` span instead.
    """
    # imported here, not at module level: the engine pipeline imports
    # this module's shared helpers (resolve_relations, attach_profile),
    # so the package-level dependency must stay one-directional
    from repro.engine.pipeline import bind, plan, prepare

    observer = resolve_observer(profile, obs)
    bound = bind(query, source, debug=debug, obs=observer)
    if door_request(algorithm, engine, binary_order):
        return _door(bound, algorithm, index, order, binary_order, engine,
                     dynamic_seed, debug, observer, index_kwargs, parallel,
                     materialize, trace_out)
    join_plan = plan(bound, algorithm=algorithm, index=index, order=order,
                     engine=engine, dynamic_seed=dynamic_seed, debug=debug,
                     obs=observer, index_kwargs=index_kwargs,
                     parallel=parallel)
    prepared = prepare(bound, join_plan, None, observer)
    try:
        return prepared.execute(materialize=materialize, obs=observer,
                                trace_out=trace_out)
    finally:
        # releases the shared memory of a sharded run; a no-op for
        # ordinary single-process plans
        prepared.close()
