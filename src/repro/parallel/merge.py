"""Merging shard results back into one :class:`JoinResult`.

Shards partition the result set disjointly (each result tuple binds
the partition attribute to exactly one value, which hashes to exactly
one shard), so the merge is a concatenation: counts sum, materialized
rows append **in shard-id order** — and within a shard, workers emit
rows in the same order the single-process driver would over that
shard's rows — so repeated runs of the same sharded plan produce the
same sequence, which is what the equivalence tests sort-and-compare
against.

Worker-side counters fold into the parent's observer registry through
the thread-safe :meth:`repro.obs.metrics.Metrics.merge`, and every
shard contributes one ``shard`` span to the parent trace, so a
profiled sharded run reads like a profiled single-process run plus a
fan-out layer.
"""

from __future__ import annotations

from repro.joins.results import (
    CountingSink,
    JoinMetrics,
    JoinResult,
    MaterializingSink,
)
from repro.obs.metrics import Metrics


def merge_shard_results(shard_results: "list[dict]",
                        attributes: "tuple[str, ...]",
                        materialize: bool,
                        algorithm: str,
                        index: str,
                        build_seconds: float,
                        probe_seconds: float,
                        observer=None) -> JoinResult:
    """Fold per-shard result dicts into one parent :class:`JoinResult`.

    ``shard_results`` must already be in shard-id order (the pool
    returns task order).  ``build_seconds`` is the parent's §5.15
    charge (partition + transport on the first execution, 0 after);
    ``probe_seconds`` is the parent-side wall clock of the
    dispatch→collect→merge window, which *includes* the workers' index
    builds — per-shard build/probe splits stay visible through the
    shard spans and counters.
    """
    if materialize:
        sink = MaterializingSink()
        for result in shard_results:
            rows = result.get("rows") or ()
            sink.rows.extend(rows)
    else:
        sink = CountingSink()
        for result in shard_results:
            # the shard's rows were never shipped, only their count
            sink.emit_columns((), result["count"])
    metrics = JoinMetrics(
        algorithm=algorithm,
        index=index,
        build_seconds=build_seconds,
        probe_seconds=probe_seconds,
        intermediate_tuples=sum(r["intermediates"] for r in shard_results),
        lookups=sum(r["lookups"] for r in shard_results),
        result_count=sink.count,
    )
    if observer is not None and observer.enabled:
        fold_shard_counters(shard_results, observer.metrics)
    return JoinResult(attributes=attributes, sink=sink, metrics=metrics)


def fold_shard_counters(shard_results: "list[dict]",
                        registry: Metrics) -> None:
    """Merge worker counter snapshots into the parent registry.

    Each worker snapshot becomes a throwaway :class:`Metrics` folded in
    via :meth:`~repro.obs.metrics.Metrics.merge` — one locked bulk fold
    per shard instead of one locked ``inc`` per counter — with every
    key prefixed ``shard.`` so parent-side counters stay separable.
    """
    for result in shard_results:
        counters = result.get("counters")
        if not counters:
            continue
        snapshot = Metrics()
        for name, value in counters.items():
            snapshot.counters[f"shard.{name}"] = value
        registry.merge(snapshot)


def add_shard_spans(shard_results: "list[dict]", observer,
                    window_start_ns: int) -> None:
    """One ``shard`` span per shard in the parent trace.

    Worker clocks are not aligned with the parent's, so spans are
    anchored at the parent's dispatch timestamp with the worker's own
    build+probe duration — good enough to see shard skew in a trace.
    """
    if observer is None or not observer.enabled:
        return
    for result in shard_results:
        duration_s = (result.get("build_s", 0.0)
                      + result.get("probe_s", 0.0))
        observer.tracer.add_span(
            "shard", window_start_ns, int(duration_s * 1e9),
            shard=result.get("shard"),
            results=result.get("count"),
            algorithm=result.get("algorithm"),
        )
