"""The parent-side sharded executor: fan out, collect, merge.

A :class:`ShardedRunner` is what a :class:`~repro.engine.prepared.PreparedJoin`
holds instead of driver adapters when its plan carries a
:class:`~repro.engine.ir.ShardingSpec`: the prepare stage has already
partitioned every relation's columns into shared memory
(:class:`~repro.parallel.shm.ShardedColumns`), and each execution
builds K picklable shard tasks — column handles, query text, and the
frozen plan decisions, nothing live — dispatches them over a
process-wide :class:`~repro.parallel.pool.WorkerPool` borrowed for that
one fan-out, and merges the shard results deterministically
(:mod:`repro.parallel.merge`).

Shards whose partitioned input is empty are skipped without crossing
the process boundary: a shard's results all bind the partition
attribute to values of that shard, so an empty partitioned relation
means an empty shard result.
"""

from __future__ import annotations

import uuid

from repro.core.envflag import env_flag, env_str
from repro.joins.results import JoinResult, Stopwatch
from repro.obs.distributed import TraceContext, attach_sharded_profile
from repro.obs.flightrec import FLIGHT_RECORDER
from repro.obs.observer import NULL_OBSERVER
from repro.parallel.merge import add_shard_spans, merge_shard_results
from repro.parallel.pool import IDLE_POOLS
from repro.parallel.shm import ShardedColumns


def query_text(query) -> str:
    """The query in canonical parseable form (what crosses the boundary)."""
    return ", ".join(
        f"{atom.alias}={atom.relation}({','.join(atom.attributes)})"
        for atom in query.atoms
    )


def plan_index_kwargs(plan) -> dict:
    """Reconstruct the ``**index_kwargs`` a worker re-plans with.

    Inverts what the planner folded into the plan's first spec's options
    (every spec of a plan shares one option dict); plan-internal markers
    (the leapfrog ``sorted`` presort) are dropped — the worker's own
    planner re-derives them.
    """
    if not plan.index_specs:
        return {}
    options = dict(plan.index_specs[0].options)
    if plan.algorithm == "generic":
        kwargs: dict = {}
        if plan.index == "sonic":
            kwargs["sonic_bucket_size"] = options.pop("bucket_size", 8)
            kwargs["sonic_overallocation"] = options.pop("overallocation", 2.0)
        if options:
            kwargs["index_options"] = options
        return kwargs
    if plan.algorithm == "hashtrie":
        return {"lazy": options.get("lazy", True),
                "singleton_pruning": options.get("singleton_pruning", True)}
    return {}


def _empty_shard_result(shard: int) -> dict:
    return {"ok": True, "shard": shard, "skipped": True, "count": 0,
            "rows": [], "attributes": (), "algorithm": None, "build_s": 0.0,
            "probe_s": 0.0, "lookups": 0, "intermediates": 0,
            "counters": None}


class ShardedRunner:
    """Executes one sharded plan against its partitioned columns."""

    def __init__(self, bound, plan,
                 shard_columns: "dict[str, ShardedColumns]",
                 owned: bool = False):
        self.bound = bound
        self.plan = plan
        self.shard_columns = shard_columns
        #: whether close() should release the shared-memory segments
        #: (the cold one-shot path); session-cached columns are released
        #: by cache-entry garbage collection instead.  Workers run an
        #: owned runner's tasks once, outside their state cache.
        self.owned = owned
        self._task_template = self._build_template()

    # ------------------------------------------------------------------
    def _build_template(self) -> dict:
        # each worker re-plans the plan's decisions over its shard
        plan = self.plan
        return {
            "query": query_text(self.bound.query),
            "algorithm": plan.algorithm,
            "index": plan.index,
            "engine": plan.engine,
            "order": list(plan.total_order),
            "atom_order": list(plan.atom_order),
            "dynamic_seed": plan.dynamic_seed,
            "index_kwargs": plan_index_kwargs(self.plan),
        }

    def _plan_signature(self) -> tuple:
        template = self._task_template
        return (template["query"], template["algorithm"], template["index"],
                template["engine"], tuple(template["order"]),
                tuple(template["atom_order"]), template["dynamic_seed"],
                repr(sorted(template["index_kwargs"].items())))

    def _shard_task(self, shard: int, materialize: bool,
                    with_counters: bool) -> "dict | None":
        """The task for one shard, or ``None`` when the shard is empty."""
        relations = {}
        signature_parts = [self._plan_signature(), shard]
        for alias, columns in self.shard_columns.items():
            if (columns.partition_position is not None
                    and columns.lengths[shard] == 0):
                return None
            handles = columns.handles_for(shard)
            relations[alias] = {
                "name": alias,
                "attributes": list(
                    self.bound.relations[alias].schema.attributes),
                "handles": handles,
            }
            signature_parts.append(
                (alias, tuple(h.signature() for h in handles)))
        # read here: a pooled worker's environment is that of its fork
        trace_out = env_str("REPRO_TRACE_OUT") or None
        task = dict(self._task_template)
        task.update({
            "shard": shard,
            "signature": tuple(signature_parts),
            "relations": relations,
            "materialize": materialize,
            "with_counters": (with_counters or bool(trace_out)
                              or env_flag("REPRO_PROFILE")),
            "trace_out": trace_out,
            "one_shot": self.owned,
        })
        return task

    # ------------------------------------------------------------------
    def execute(self, materialize: bool = False, obs=None,
                build_charge: float = 0.0,
                trace_out: "str | None" = None) -> JoinResult:
        """Run every shard and merge; parent wall clock is the probe.

        Every dispatched task carries a :class:`TraceContext` (one trace
        id per execution, a per-task parent-clock dispatch stamp), so
        profiled workers answer with calibratable spans and a full
        per-shard profile; with an enabled observer the merged result
        carries a :class:`~repro.obs.profile.ShardedJoinProfile` and
        ``trace_out``/``REPRO_TRACE_OUT`` gets the merged multi-pid
        Chrome trace.
        """
        observer = obs if obs is not None else NULL_OBSERVER
        workers = self.plan.sharding.workers
        trace_id = uuid.uuid4().hex[:16]
        window_start = Stopwatch.now_ns()
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
                    task["trace"] = TraceContext(
                        trace_id, "shard_fanout",
                        Stopwatch.now_ns()).to_wire()
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
            add_shard_spans(executed, observer, window_start)
        with observer.tracer.span("merge_shards", shards=len(shard_results),
                                  trace_id=trace_id):
            result = merge_shard_results(
                shard_results, attributes, materialize,
                algorithm=algorithm, index=self.plan.index,
                build_seconds=build_charge, probe_seconds=probe_seconds,
                observer=observer)
        FLIGHT_RECORDER.record("runner.merged", trace_id=trace_id,
                               results=result.count)
        if observer.enabled:
            attach_sharded_profile(self.bound.query, result, observer,
                                   self.plan, shard_results,
                                   trace_out=trace_out)
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
