"""The top-level join API — the runtime analogue of the paper's Listing 1.

The C++ framework pairs relations with index adapters and instantiates a
fully-inlined join at compile time; :func:`join` does the same wiring at
runtime, now as a thin wrapper over the staged engine pipeline
(:mod:`repro.engine.pipeline`): **bind** each atom to its relation,
**plan** the algorithm/engine/total-order/index-spec decisions into a
:class:`~repro.engine.ir.JoinPlan`, **prepare** the supporting
structures (timed — ad-hoc index build is part of every WCOJ run,
§5.15), and **execute**.  Each ``join()`` call is a one-shot cold
session: no index cache, so the ad-hoc build is part of every reported
time, as in the seed's monolithic implementation.  For repeated
queries over the same relations, use :class:`repro.engine.Session`,
whose prepared joins skip the rebuild.

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
binary vs generic, §6/[22]; unless ``engine="tuple"`` an acyclic query
goes generic too).

This module also remains the home of the shared building blocks the
pipeline stages (and the test suite) use directly:
:func:`resolve_relations`, :func:`build_adapters`,
:func:`attach_profile`, and the ``ALGORITHMS`` / ``ENGINES`` domains.
"""

from __future__ import annotations

import json
from collections.abc import Mapping, Sequence
from pathlib import Path

from repro.core.adapter import IndexAdapter
from repro.core.config import SonicConfig
from repro.core.envflag import resolve_str
from repro.errors import QueryError
from repro.indexes.registry import make_index
from repro.joins.results import JoinResult, Stopwatch
from repro.obs.observer import JoinObserver, NULL_OBSERVER, resolve_observer
from repro.obs.profile import build_profile
from repro.planner.query import Atom, JoinQuery, parse_query
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


def build_adapters(query: JoinQuery, relations: Mapping[str, Relation],
                   order: Sequence[str], index: str = "sonic",
                   sonic_overallocation: float = 2.0,
                   sonic_bucket_size: int = 8,
                   index_options: Mapping[str, object] | None = None,
                   obs=None) -> dict[str, IndexAdapter]:
    """One freshly-built index adapter per atom (the WCOJ build phase).

    With an enabled observer, each adapter's build is timed individually
    (``profile.build_breakdown``) and recorded as a ``build_index`` span.
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
        adapters[atom.alias] = adapter
        if obs_enabled:
            duration = Stopwatch.now_ns() - adapter_t0
            observer.record_build(atom.alias, duration)
            observer.tracer.add_span("build_index", adapter_t0, duration,
                                     alias=atom.alias, index=index,
                                     tuples=len(relation))
    return adapters


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
    order), ``dynamic_seed`` ablates the AGM-guided anchor selection,
    ``binary_order`` pins the binary pipeline's join order (Fig 1's
    order-sensitivity axis) and must name every atom exactly once
    whichever algorithm runs.

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
    ``"auto"`` does not, and ``"unified"`` is another name for it: the
    hybrid optimizer sends an acyclic query to the binary hash pipeline,
    and unless ``engine="tuple"`` (or ``binary_order`` pins the binary
    side) the plan stage runs it on the batch Generic Join instead,
    whose build is one sort per relation rather than a Python loop per
    row; a cyclic query runs on the Generic Join with its acyclic ears.
    ``PlanChoice.reason`` and ``describe()`` say which way it went.

    ``**index_kwargs`` carries per-algorithm index options
    (``sonic_bucket_size`` / ``sonic_overallocation`` / ``index_options``
    for the Generic Join, ``lazy`` / ``singleton_pruning`` for
    Hash-Trie Join).  Options the chosen algorithm cannot honor raise
    :class:`~repro.errors.ConfigurationError` at plan time — the seed
    silently swallowed them.

    ``debug`` (default: the ``REPRO_DEBUG`` environment variable) runs the
    static plan validator (:mod:`repro.analysis.plancheck`) on the
    resolved plan — including the RA306/RA307 IR checks — before
    execution, raising :class:`~repro.errors.PlanValidationError`
    instead of silently executing a malformed plan.

    ``parallel`` (default: the ``REPRO_WORKERS`` environment variable;
    0 / unset keeps the single-process path) runs the join as ``K``
    hash-sharded worker processes over shared-memory columns
    (:mod:`repro.parallel`): the plan gains a
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

    Every call runs the full cold pipeline — **bind → plan →
    prepare(no cache) → execute** — so the ad-hoc index build is part
    of the reported timing, exactly as the paper measures (§5.15).
    """
    # imported here, not at module level: the engine pipeline imports
    # this module's shared helpers (resolve_relations, attach_profile),
    # so the package-level dependency must stay one-directional
    from repro.engine.pipeline import bind, plan, prepare

    observer = resolve_observer(profile, obs)
    bound = bind(query, source, debug=debug, obs=observer)
    join_plan = plan(bound, algorithm=algorithm, index=index, order=order,
                     binary_order=binary_order, engine=engine,
                     dynamic_seed=dynamic_seed, debug=debug, obs=observer,
                     index_kwargs=index_kwargs, parallel=parallel)
    prepared = prepare(bound, join_plan, cache=None, obs=observer)
    try:
        return prepared.execute(materialize=materialize, obs=observer,
                                trace_out=trace_out)
    finally:
        # releases the shared memory of a sharded run; a no-op for
        # ordinary single-process plans
        prepared.close()


def triangle_count(edges: Relation, algorithm: str = "generic",
                   index: str = "sonic", **kwargs) -> int:
    """Count directed triangles in an edge relation (the paper's Fig 1 query)."""
    query = parse_query("E1=E(a,b), E2=E(b,c), E3=E(c,a)")
    result = join(query, {"E1": edges, "E2": edges, "E3": edges},
                  algorithm=algorithm, index=index, **kwargs)
    return result.count
