"""The prepared join: built once, executable many times.

A :class:`PreparedJoin` is the prepare stage's output — a bound query, a
:class:`~repro.engine.ir.JoinPlan`, and every supporting structure the
plan needs, already built (and possibly shared with a session's index
cache).  Each :meth:`~PreparedJoin.execute` call walks the plan's stage
tree, constructing a fresh driver per stage over the shared structures
— drivers keep per-run state (cursors, sinks, metrics) so the structures
themselves are safely reusable — and returns an ordinary
:class:`~repro.joins.results.JoinResult`.

**Timing semantics.**  The paper charges ad-hoc index build to every
WCOJ run (§5.15).  A prepared join preserves that contract on its
*first* execution: the prepare-stage build wall time is charged to the
first result's ``metrics.build_seconds`` (which is how the back-compat
:func:`repro.joins.join` cold path stays bit-identical with the seed),
together with the trie levels that execution was the first to descend
into.  Repeat executions report ``build_seconds == 0.0`` unless they
descend deeper (a materialising run after a counting one) — the
serving-path win the session cache exists for.

**Staleness.**  The structures pin a snapshot of the relations at
prepare time; mutating a relation afterwards does not refresh them.
Re-prepare (cheap through a warm cache — the mutation bumps the
version, so only genuinely-stale structures rebuild) to observe new
data; :meth:`repro.engine.session.Session.execute` does exactly that on
every call.
"""

from __future__ import annotations

import threading

from repro.core.adapter import IndexAdapter
from repro.engine.ir import (
    BoundQuery,
    JoinPlan,
    PlanStage,
    built_kind,
    stage_alias,
)
from repro.errors import ExecutionError
from repro.joins.batch import GenericJoinBatch
from repro.joins.binary import BinaryHashJoin
from repro.joins.executor import attach_profile
from repro.joins.generic_join import GenericJoin
from repro.joins.hashtrie_join import HashTrieJoin
from repro.joins.leapfrog import LeapfrogTrieJoin
from repro.joins.recursive import RecursiveJoin
from repro.joins.results import JoinResult
from repro.obs.observer import JoinObserver, NULL_OBSERVER, resolve_observer
from repro.storage.relation import Relation


class PreparedJoin:
    """An executable join with its supporting structures already built.

    A single-process plan runs its stage tree (one stage for a flat
    request) through :meth:`_run_stage`; a sharded plan hands its root
    stage's decisions to a :class:`~repro.parallel.runner.ShardedRunner`
    and must be :meth:`close`-d, after which it cannot execute again.
    """

    def __init__(self, bound: BoundQuery, plan: JoinPlan,
                 structures: dict[str, object], build_seconds: float,
                 owned_shards: bool = False):
        self.bound = bound
        self.plan = plan
        self.structures = structures
        #: wall time spent building this join's structures: the prepare
        #: stage's builds (cache hits ≈ 0) plus whatever its executions
        #: materialised afterwards (trie levels)
        self.build_seconds = build_seconds
        self.executions = 0
        self._pending_build = build_seconds
        #: guards the three accounting fields above: one prepared join
        #: may be executed from many threads
        self._accounting = threading.Lock()
        #: row counts read when the structures were built: a binary
        #: stage scans its leading atom up to here, so an answer is of
        #: the prepared version even after an append (the stage tables
        #: are already pinned to it)
        self._prepared_rows = {alias: len(relation)
                               for alias, relation in bound.relations.items()}
        #: index adapters of the childless stages, by ``id(stage)`` (the
        #: plan keeps its stages alive), made by the first run
        self._adapters: dict[int, dict[str, IndexAdapter]] = {}
        self._runner = None
        if plan.sharding is not None:
            # imported lazily — repro.parallel's worker re-enters the
            # engine pipeline, so module scope stays one-directional
            from repro.parallel.runner import ShardedRunner

            # ``owned_shards``: does close() own the shared-memory
            # segments (cold path), or does the session cache (warm path)?
            self._runner = ShardedRunner(bound, plan, structures,
                                         owned=owned_shards)

    # ------------------------------------------------------------------
    def _driver(self, stage: PlanStage, relations: dict, observer):
        """A fresh driver for ``stage`` over the shared structures.
        Adapters are stateless wrappers: a childless stage joins
        prepared relations only, so the ones its first run makes are
        kept; a stage with children joins relations made during the
        run and wraps them each time."""
        algorithm, query = stage.algorithm, stage.query
        if algorithm == "binary":
            # a child stage's output is made during this execution and
            # has no prepared count: it is scanned whole
            leading = stage.atom_order[0]
            rows = self._prepared_rows.get(leading, len(relations[leading]))
            return BinaryHashJoin(query, relations,
                                  order=list(stage.atom_order), obs=observer,
                                  prebuilt=(self.structures, rows))
        if algorithm == "leapfrog":
            return LeapfrogTrieJoin(query, relations, order=stage.total_order,
                                    obs=observer, tries=self.structures)
        if algorithm == "recursive":
            return RecursiveJoin(query, relations, order=stage.total_order,
                                 edges=self.structures)
        adapters = self._adapters.get(id(stage))
        if adapters is None:
            adapters = {
                atom.alias: IndexAdapter(relations[atom.alias],
                                         self.structures[atom.alias],
                                         stage.total_order)
                for atom in query.atoms
            }
            if not stage.children:
                self._adapters[id(stage)] = adapters
        if algorithm == "hashtrie":
            return HashTrieJoin(query, relations, order=stage.total_order,
                                obs=observer, adapters=adapters)
        driver_cls = (GenericJoinBatch if stage.engine == "batch"
                      else GenericJoin)
        driver = driver_cls(query, adapters, order=stage.total_order,
                            dynamic_seed=self.plan.dynamic_seed, obs=observer)
        # what was built, which is not always what was asked for
        driver.metrics.index = built_kind(stage)
        return driver

    # ------------------------------------------------------------------
    def execute(self, materialize: bool = False, obs=None,
                profile: "bool | None" = None,
                trace_out: "str | None" = None) -> JoinResult:
        """Run the prepared join once; fresh drivers, shared structures.

        ``obs`` / ``profile`` / ``trace_out`` mirror
        :func:`repro.joins.join`: an explicit observer wins, else
        ``profile`` (default ``REPRO_PROFILE``) spins up a private
        :class:`~repro.obs.observer.JoinObserver` for this execution.
        Note a warm execution's profile has no ``build_index`` spans —
        the builds happened at prepare time, under the prepare
        observer.
        """
        plan = self.plan
        if plan.sharding is not None and self._runner is None:
            raise ExecutionError(
                "this sharded prepared join is closed: its worker pool is "
                "stopped and its shared-memory columns are released; "
                "prepare the query again to execute it")
        observer = resolve_observer(profile, obs)
        # §5.15 build-included timing: the prepare-stage build cost lands
        # on the first execution only
        with self._accounting:
            charge, self._pending_build = self._pending_build, 0.0
            self.executions += 1

        if plan.sharding is not None:
            # the runner attaches the ShardedJoinProfile itself — it is
            # the only layer that still holds the per-shard responses
            # (spans, per-shard profiles, clock stamps) the distributed
            # assembly needs
            return self._runner.execute(materialize=materialize,
                                        obs=observer, build_charge=charge,
                                        trace_out=trace_out)
        root = plan.root_stage
        result, reports = self._run_stage(root, self.bound.relations,
                                          observer, materialize, depth=0)
        metrics = result.metrics
        if plan.algorithm == "unified":
            metrics.algorithm = plan.algorithm
        # deferred build time — trie levels — surfaces on the run that
        # actually materialized them (§5.15 build-included timing)
        deferred = self._drain_lazy_charges()
        if deferred:
            with self._accounting:
                self.build_seconds += deferred
        metrics.build_seconds += charge + deferred
        result = attach_profile(self.bound.query, result, observer,
                                plan.choice,
                                root.total_order or root.atom_order,
                                engine=root.engine or None,
                                trace_out=trace_out)
        if result.profile is not None:
            result.profile.stages = reports
        return result

    def _drain_lazy_charges(self) -> float:
        """Collect pending materialization time from the structures (a
        columnar trie's levels)."""
        total = 0.0
        for structure in self.structures.values():
            take = getattr(structure, "take_pending_charge", None)
            if callable(take):
                total += take()
        return total

    def _run_stage(self, stage: PlanStage, relations: dict, observer,
                   materialize: bool, depth: int):
        """Execute one stage (children first); returns (result, reports).

        Child outputs join as synthetic ``stage:<label>`` relations —
        ordinary :class:`~repro.storage.relation.Relation` objects over
        the materialized rows, which is what lets a binary pipeline
        stage probe a Generic Join sub-plan's output with zero special
        cases in the drivers.  The root stage runs under the caller's
        observer (so the profile's level tree describes the root
        driver), child stages under private ones; ``reports`` — made
        only when profiling is on — is the per-stage summaries that land
        on ``profile.stages``, in pre-order.
        """
        reports: list[dict] = []
        child_runs: list[JoinResult] = []
        if stage.children:
            relations = dict(relations)
        for child in stage.children:
            child_obs = JoinObserver() if observer.enabled else NULL_OBSERVER
            child_result, child_reports = self._run_stage(
                child, relations, child_obs, True, depth + 1)
            reports.extend(child_reports)
            child_runs.append(child_result)
            feeder = stage_alias(child.label)
            relations[feeder] = Relation(feeder, child.output,
                                         child_result.rows)
        result = self._driver(stage, relations, observer).run(
            materialize=materialize)
        if observer.enabled:
            choice = stage.choice
            estimated = None
            if choice is not None:
                estimated = (choice.binary_estimate
                             if stage.algorithm == "binary"
                             else choice.agm_bound)
            reports.insert(0, {
                "label": stage.label,
                "depth": depth,
                "algorithm": stage.algorithm,
                "engine": stage.engine or None,
                "index": stage.index or None,
                "order": list(stage.total_order or stage.atom_order),
                "estimated_rows": (float(estimated) if estimated is not None
                                   else None),
                "actual_rows": int(result.count),
                "seconds": round(result.metrics.probe_seconds, 6),
            })
        # fold the children's work into this stage's metrics so the root
        # result reports whole-query totals; a child's output rows are
        # intermediates from the whole query's point of view
        metrics = result.metrics
        for child_result in child_runs:
            child_metrics = child_result.metrics
            metrics.probe_seconds += child_metrics.probe_seconds
            metrics.build_seconds += child_metrics.build_seconds
            metrics.lookups += child_metrics.lookups
            metrics.intermediate_tuples += (
                child_metrics.intermediate_tuples + child_result.count)
        return result, reports

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release execution resources (idempotent; no-op when there are
        none).  A sharded prepared join shuts its worker pool down,
        unlinks the shared-memory shard segments on the cold path —
        where no session cache co-owns them — and drops its references
        to the shard columns either way, so a cache that does co-own
        them frees the segments the moment it lets go, not whenever
        this object is collected.  Ordinary prepared joins hold nothing
        that needs releasing."""
        if self._runner is not None:
            self._runner.close()
            self._runner = None
            self.structures = {}

    def __enter__(self) -> "PreparedJoin":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    def explain(self) -> str:
        """One-line physical-plan summary (delegates to the plan IR)."""
        return self.plan.describe()

    def __repr__(self) -> str:
        return (f"PreparedJoin({self.plan.describe()!r}, "
                f"executions={self.executions})")
