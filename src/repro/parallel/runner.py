"""The parent-side sharded executor: fan out, collect, merge.

A :class:`ShardedRunner` is what a :class:`~repro.engine.prepared.PreparedJoin`
holds instead of tries when its frontier plan carries a
:class:`~repro.engine.ir.ShardingSpec`: the prepare stage has already
partitioned every relation's columns into shared memory
(:class:`~repro.parallel.shm.ShardedColumns`), and each execution
builds K picklable shard tasks — column handles and the parent's own
plan, pickled once per runner, nothing live — dispatches them over a
process-wide :class:`~repro.parallel.pool.WorkerPool` borrowed for that
one fan-out, and merges the shard results deterministically
(:mod:`repro.parallel.merge`).

Shards whose partitioned input is empty are skipped without crossing
the process boundary: a shard's results all bind the partition
attribute to values of that shard, so an empty partitioned relation
means an empty shard result.
"""

from __future__ import annotations

import pickle
import uuid
from dataclasses import replace

from repro.core.envflag import env_flag, env_str
from repro.indexes.columnar import ColumnarTrie
from repro.joins.results import JoinResult, Stopwatch
from repro.obs.flightrec import FLIGHT_RECORDER
from repro.obs.observer import NULL_OBSERVER
from repro.parallel.merge import (
    fold_shard_counters,
    merge_shard_results,
    shard_profiles,
)
from repro.parallel.pool import IDLE_POOLS
from repro.parallel.shm import ShardedColumns


def _empty_shard_result(shard: int) -> dict:
    return {"shard": shard, "count": 0, "rows": [], "algorithm": None,
            "lookups": 0, "intermediates": 0}


class ShardedRunner:
    """Executes one sharded plan against its partitioned columns."""

    def __init__(self, plan, shard_columns: "dict[str, ShardedColumns]",
                 owned: bool = False):
        self.plan = plan
        self.shard_columns = shard_columns
        #: whether close() should release the shared-memory segments
        #: (the cold one-shot path); session-cached columns are released
        #: by cache-entry garbage collection instead.  Workers run an
        #: owned runner's tasks once, outside their state cache.
        self.owned = owned
        # what each worker runs over its shard: the parent's own plan,
        # unsharded — the estimate stays on the parent's profile
        self._plan_bytes = pickle.dumps(
            replace(plan, sharding=None, choice=None),
            protocol=pickle.HIGHEST_PROTOCOL)

    # ------------------------------------------------------------------
    def _shard_task(self, shard: int, materialize: bool,
                    with_counters: bool) -> "dict | None":
        """The task for one shard, or ``None`` when the shard is empty."""
        handles = {}
        for alias, columns in self.shard_columns.items():
            if (columns.partition_position is not None
                    and columns.lengths[shard] == 0):
                return None
            handles[alias] = columns.handles_for(shard)
        signature = (self._plan_bytes, shard,
                     tuple((alias, tuple(h.signature() for h in row))
                           for alias, row in handles.items()))
        # read here: a pooled worker's environment is that of its fork
        trace_out = env_str("REPRO_TRACE_OUT") or None
        return {
            "plan": self._plan_bytes,
            "shard": shard,
            "signature": signature,
            "handles": handles,
            "materialize": materialize,
            "with_counters": (with_counters or bool(trace_out)
                              or env_flag("REPRO_PROFILE")),
            "trace_out": trace_out,
            "one_shot": self.owned,
        }

    # ------------------------------------------------------------------
    def execute(self, materialize: bool = False, obs=None,
                build_charge: float = 0.0) -> JoinResult:
        """Run every shard and merge; parent wall clock is the probe.

        Every dispatched task carries its parent-clock dispatch stamp
        (``task["trace"]``; the fan-out's trace id names its spans), so a
        profiled worker answers with its own profile and the stamps that
        put its spans on the parent's timeline.  An enabled observer
        receives the fan-out and those profiles (``observer.sharding`` /
        ``observer.shards``), from which the caller's ordinary profile
        assembly builds the run's profile.
        """
        observer = obs if obs is not None else NULL_OBSERVER
        workers = self.plan.sharding.workers
        trace_id = uuid.uuid4().hex[:16]
        watch = Stopwatch()
        with observer.tracer.span("shard_fanout", workers=workers,
                                  trace_id=trace_id):
            tasks = []
            shard_results: "list[dict]" = []
            for shard in range(workers):
                task = self._shard_task(shard, materialize, observer.enabled)
                if task is None:
                    shard_results.append(_empty_shard_result(shard))
                else:
                    task["trace"] = {"issued_ns": Stopwatch.now_ns()}
                    shard_results.append(task)  # placeholder, filled below
                    tasks.append(task)
            FLIGHT_RECORDER.record("runner.fanout", trace_id=trace_id,
                                   workers=workers, tasks=len(tasks))
            if tasks:
                with IDLE_POOLS.borrow(workers) as pool:
                    for result in pool.run(tasks):
                        shard_results[result["shard"]] = result
        probe_seconds = watch.lap()

        executed = [r for r in shard_results if r.get("algorithm")]
        algorithm = (executed[0]["algorithm"] if executed
                     else self.plan.algorithm)
        # every shard skipped (empty inputs): the plan's own schema
        attributes = (tuple(executed[0]["attributes"]) if executed
                      else self.plan.output)
        if observer.enabled:
            observer.metrics.inc("parallel.executions")
            observer.metrics.inc("parallel.shards", workers)
            observer.metrics.inc("parallel.shards_skipped",
                                 workers - len(tasks))
            observer.sharding = self.plan.sharding
            observer.shards = shard_profiles(shard_results,
                                             observer.tracer.origin_ns)
            fold_shard_counters(observer.shards, observer.metrics)
        with observer.tracer.span("merge_shards", shards=len(shard_results),
                                  trace_id=trace_id):
            # a shard runs the frontier over columnar tries, whatever
            # index the caller named
            result = merge_shard_results(
                shard_results, attributes, materialize,
                algorithm=algorithm, index=ColumnarTrie.NAME,
                build_seconds=build_charge, probe_seconds=probe_seconds)
        FLIGHT_RECORDER.record("runner.merged", trace_id=trace_id,
                               results=result.count)
        return result

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release owned shared memory (idempotent)."""
        if self.owned:
            for columns in self.shard_columns.values():
                columns.close()

    def __repr__(self) -> str:
        return (f"ShardedRunner(workers={self.plan.sharding.workers}, "
                f"aliases={sorted(self.shard_columns)}, owned={self.owned})")
