"""Multiprocess sharded execution of the join engine (§3.4.2, for real).

The paper's parallel story is simulated elsewhere in this repo
(:mod:`repro.core.parallel` reproduces the §3.4.2 *locking protocol*
under the GIL, where wall-clock speedup is unobservable); this package
is the measured counterpart: **escape the GIL by sharding across
processes over shared-memory columns**.

The decomposition is the standard one for Generic Join: hash-partition
on the first attribute of the total order (every result binds it to
exactly one value, so shard result sets are disjoint), replicate
relations that never bind it, run the parent's own plan through the
unmodified prepare/execute stages per shard in a worker process, and
concatenate.  Layers, parent → worker:

* :mod:`repro.parallel.partition` — deterministic vectorized hash
  split of :meth:`~repro.storage.relation.Relation.columns` arrays;
* :mod:`repro.parallel.shm` — shared-memory column transport (only
  segment *names* and dtype/length headers cross the boundary);
* :mod:`repro.parallel.runner` / :mod:`repro.parallel.pool` — the
  parent-side fan-out over process-wide, borrowed worker pools;
* :mod:`repro.parallel.worker` — the in-process shard executor
  (attach → rebuild relations → prepare/execute the parent's plan);
* :mod:`repro.parallel.merge` — deterministic concatenation, counter
  fold-in via :meth:`repro.obs.metrics.Metrics.merge`.

Users never touch these classes directly, so the package exports
nothing: ``join(..., parallel=K)`` plants a
:class:`~repro.engine.ir.ShardingSpec` in the plan, and the engine's
prepare/execute stages route through here.
"""

__all__: list[str] = []
