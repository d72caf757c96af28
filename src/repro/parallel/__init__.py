"""Multiprocess sharded execution of the join engine (§3.4.2, for real).

The paper's parallel story is simulated elsewhere in this repo
(:mod:`repro.core.parallel` reproduces the §3.4.2 *locking protocol*
under the GIL, where wall-clock speedup is unobservable); this package
is the measured counterpart: **escape the GIL by sharding across
processes over shared-memory columns**.

The decomposition is the standard one for Generic Join: hash-partition
on the first attribute of the total order (every result binds it to
exactly one value, so shard result sets are disjoint), replicate
relations that never bind it, run the unmodified staged engine per
shard in a worker process, and concatenate.  Layers, parent → worker:

* :mod:`repro.parallel.partition` — deterministic vectorized hash
  split of :meth:`~repro.storage.relation.Relation.columns` arrays;
* :mod:`repro.parallel.shm` — shared-memory column transport (only
  segment *names* and dtype/length headers cross the boundary);
* :mod:`repro.parallel.runner` / :mod:`repro.parallel.pool` — the
  parent-side fan-out over process-wide, borrowed worker pools;
* :mod:`repro.parallel.worker` — the in-process shard executor
  (attach → rebuild relations → bind/plan/prepare/execute);
* :mod:`repro.parallel.merge` — deterministic concatenation, counter
  fold-in via :meth:`repro.obs.metrics.Metrics.merge`.

Users never touch these classes directly: ``join(..., parallel=K)``
(or ``REPRO_WORKERS=K``) plants a
:class:`~repro.engine.ir.ShardingSpec` in the plan, and the engine's
prepare/execute stages route through here.
"""

from repro.parallel.merge import merge_shard_results
from repro.parallel.partition import (
    build_sharded_columns,
    partition_order,
    shard_ids,
    shard_of,
)
from repro.parallel.pool import WorkerPool, resolve_workers, start_method
from repro.parallel.runner import ShardedRunner
from repro.parallel.shm import (
    SEGMENT_PREFIX,
    ColumnHandle,
    Segment,
    ShardedColumns,
    attach_array,
    export_array,
)
from repro.parallel.worker import run_shard_task, worker_main

__all__ = [
    "SEGMENT_PREFIX",
    "ColumnHandle",
    "Segment",
    "ShardedColumns",
    "ShardedRunner",
    "WorkerPool",
    "attach_array",
    "build_sharded_columns",
    "export_array",
    "merge_shard_results",
    "partition_order",
    "resolve_workers",
    "run_shard_task",
    "shard_ids",
    "shard_of",
    "start_method",
    "worker_main",
]
