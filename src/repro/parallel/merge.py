"""Merging shard results back into one :class:`JoinResult`.

Shards partition the result set disjointly (each result tuple binds
the partition attribute to exactly one value, which hashes to exactly
one shard), so the merge is a concatenation: counts sum, materialized
rows append **in shard-id order** — and within a shard, workers emit
rows in the same order the single-process driver would over that
shard's rows — so repeated runs of the same sharded plan produce the
same sequence, which is what the equivalence tests sort-and-compare
against.

A profiled shard answers with its own
:class:`~repro.obs.profile.JoinProfile`; :func:`shard_profiles` revives
those onto the parent's timeline, and :func:`fold_shard_counters` folds
their counters into the parent's registry through the thread-safe
:meth:`repro.obs.metrics.Metrics.merge`.
"""

from __future__ import annotations

from repro.joins.results import (
    CountingSink,
    JoinMetrics,
    JoinResult,
    MaterializingSink,
)
from repro.obs.distributed import calibrate_clock_offset, rebase_spans
from repro.obs.metrics import Metrics
from repro.obs.profile import JoinProfile


def merge_shard_results(shard_results: "list[dict]",
                        attributes: "tuple[str, ...]",
                        materialize: bool,
                        algorithm: str,
                        index: str,
                        build_seconds: float,
                        probe_seconds: float) -> JoinResult:
    """Fold per-shard result dicts into one parent :class:`JoinResult`.

    ``shard_results`` must already be in shard-id order (the pool
    returns task order).  ``build_seconds`` is the parent's §5.15
    charge (partition + transport on the first execution, 0 after);
    ``probe_seconds`` is the parent-side wall clock of the
    dispatch→collect→merge window, which *includes* the workers' index
    builds — per-shard build/probe splits stay visible through the
    shards' own profiles.
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
    return JoinResult(attributes=attributes, sink=sink, metrics=metrics)


def shard_profiles(shard_results: "list[dict]", origin_ns: int,
                   ) -> "list[JoinProfile | None]":
    """Each shard's own profile, its spans rebased onto the parent
    tracer's ``origin_ns`` by the round trip's clock stamps; ``None``
    for a shard that answered without one (skipped as empty)."""
    profiles = []
    for response in shard_results:
        payload = response.get("profile")
        if payload is None:
            profiles.append(None)
            continue
        clock = response["clock"]
        offset = calibrate_clock_offset(
            clock["issued_ns"], clock["received_ns"], clock["responded_ns"],
            response.get("collected_ns"))
        profile = JoinProfile.from_dict(payload)
        profile.spans = rebase_spans(
            profile.spans, clock["origin_ns"] + offset - origin_ns)
        profiles.append(profile)
    return profiles


def fold_shard_counters(shards: "list[JoinProfile | None]",
                        registry: Metrics) -> None:
    """Merge the shards' counters into the parent registry.

    Each shard's counters become a throwaway :class:`Metrics` folded in
    via :meth:`~repro.obs.metrics.Metrics.merge` — one locked bulk fold
    per shard instead of one locked ``inc`` per counter — with every
    key prefixed ``shard.`` so parent-side counters stay separable.
    """
    for shard in shards:
        if shard is None:
            continue
        snapshot = Metrics()
        for name, value in shard.counters.items():
            snapshot.counters[f"shard.{name}"] = value
        registry.merge(snapshot)
