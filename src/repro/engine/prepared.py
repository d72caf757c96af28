"""The prepared join: built once, executable many times.

A :class:`PreparedJoin` is the prepare stage's output — a bound query, a
:class:`~repro.engine.ir.JoinPlan`, and every supporting structure the
plan needs, already built (and possibly shared with a session's index
cache).  Each :meth:`~PreparedJoin.execute` call constructs a fresh
driver over the shared structures — drivers keep per-run state (cursors,
sinks, metrics) so the structures themselves are safely reusable — and
returns an ordinary :class:`~repro.joins.results.JoinResult`.

**Timing semantics.**  The paper charges ad-hoc index build to every
WCOJ run (§5.15).  A prepared join preserves that contract on its
*first* execution: the prepare-stage build wall time is charged to the
first result's ``metrics.build_seconds`` (which is how the back-compat
:func:`repro.joins.join` cold path stays bit-identical with the seed).
Repeat executions report ``build_seconds == 0.0`` — the serving-path
win the session cache exists for.

**Staleness.**  The structures pin a snapshot of the relations at
prepare time; mutating a relation afterwards does not refresh them.
Re-prepare (cheap through a warm cache — the mutation bumps the
version, so only genuinely-stale structures rebuild) to observe new
data; :meth:`repro.engine.session.Session.execute` does exactly that on
every call.
"""

from __future__ import annotations

from repro.core.adapter import IndexAdapter
from repro.engine.ir import (
    BoundQuery,
    JoinPlan,
    PlanStage,
    built_kind,
    stage_alias,
)
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
    """An executable join with its supporting structures already built."""

    def __init__(self, bound: BoundQuery, plan: JoinPlan,
                 structures: dict[str, object], build_seconds: float,
                 owned_shards: bool = False):
        self.bound = bound
        self.plan = plan
        self.structures = structures
        #: wall time the prepare stage spent building (cache hits ≈ 0)
        self.build_seconds = build_seconds
        self.executions = 0
        self._pending_build = build_seconds
        #: sharded plans only: does close() own the shared-memory
        #: segments (cold path), or does the session cache (warm path)?
        self._owned_shards = owned_shards
        self._runner = None
        self._assemble()

    # ------------------------------------------------------------------
    def _assemble(self) -> None:
        """Driver-ready views over the built structures (cheap wrappers)."""
        plan, relations = self.plan, self.bound.relations
        algorithm = plan.algorithm
        if plan.sharding is not None:
            # imported lazily — repro.parallel's worker re-enters the
            # engine pipeline, so module scope stays one-directional
            from repro.parallel.runner import ShardedRunner

            self._runner = ShardedRunner(self.bound, plan, self.structures,
                                         owned=self._owned_shards)
            return
        if algorithm == "unified":
            # stage drivers assemble per execution: child stages emit
            # intermediate relations at run time, so there is nothing
            # useful to wire up ahead of the first execute()
            return
        if algorithm in ("generic", "hashtrie"):
            # adapters are stateless (relation, index, permutation)
            # wrappers: constructing them does not build anything
            self._adapters = {
                alias: IndexAdapter(relations[alias], structure,
                                    plan.total_order)
                for alias, structure in self.structures.items()
            }
        elif algorithm == "binary":
            stages = []
            for spec in plan.index_specs:
                key_arity = spec.key_arity or 0
                stages.append({
                    "alias": spec.alias,
                    "key_attrs": spec.attribute_order[:key_arity],
                    "payload_attrs": spec.attribute_order[key_arity:],
                    "key_positions": spec.permutation[:key_arity],
                    "payload_positions": spec.permutation[key_arity:],
                    "table": self.structures[spec.alias],
                })
            output = list(self.bound.query.attributes_of(plan.atom_order[0]))
            for stage in stages:
                output.extend(stage["payload_attrs"])
            self._stages = stages
            self._output_attrs = tuple(output)

    # ------------------------------------------------------------------
    def execute(self, materialize: bool = False, obs=None,
                profile: "bool | None" = None,
                trace_out: "str | None" = None) -> JoinResult:
        """Run the prepared join once; fresh driver, shared structures.

        ``obs`` / ``profile`` / ``trace_out`` mirror
        :func:`repro.joins.join`: an explicit observer wins, else
        ``profile`` (default ``REPRO_PROFILE``) spins up a private
        :class:`~repro.obs.observer.JoinObserver` for this execution.
        Note a warm execution's profile has no ``build_index`` spans —
        the builds happened at prepare time, under the prepare
        observer.
        """
        observer = resolve_observer(profile, obs)
        # §5.15 build-included timing: the prepare-stage build cost lands
        # on the first execution only
        charge, self._pending_build = self._pending_build, 0.0
        self.executions += 1
        bound, plan = self.bound, self.plan
        query, relations = bound.query, bound.relations

        if plan.sharding is not None:
            # the runner attaches the ShardedJoinProfile itself — it is
            # the only layer that still holds the per-shard responses
            # (spans, per-shard profiles, clock stamps) the distributed
            # assembly needs
            return self._runner.execute(materialize=materialize,
                                        obs=observer, build_charge=charge,
                                        trace_out=trace_out)
        if plan.algorithm == "unified":
            return self._execute_unified(materialize, observer, charge,
                                         trace_out)
        if plan.algorithm == "binary":
            driver = BinaryHashJoin(
                query, relations, order=list(plan.atom_order), obs=observer,
                prebuilt=(self._stages, self._output_attrs))
            order: tuple[str, ...] = tuple(plan.atom_order)
            engine = None
        elif plan.algorithm == "hashtrie":
            driver = HashTrieJoin(query, relations, order=plan.total_order,
                                  obs=observer, adapters=self._adapters)
            order = plan.total_order
            engine = None
        elif plan.algorithm == "leapfrog":
            driver = LeapfrogTrieJoin(query, relations,
                                      order=plan.total_order, obs=observer,
                                      tries=self.structures)
            order = plan.total_order
            engine = None
        elif plan.algorithm == "recursive":
            driver = RecursiveJoin(query, relations, order=plan.total_order,
                                   edges=self.structures)
            order = plan.total_order
            engine = None
        else:
            driver_cls = (GenericJoinBatch if plan.engine == "batch"
                          else GenericJoin)
            driver = driver_cls(query, self._adapters, order=plan.total_order,
                                dynamic_seed=plan.dynamic_seed, obs=observer)
            # what was built, which is not always what was asked for
            driver.metrics.index = built_kind(plan)
            order = plan.total_order
            engine = plan.engine
        driver.metrics.build_seconds = charge
        result = driver.run(materialize=materialize)
        lazy_charge = self._drain_lazy_charges()
        if lazy_charge:
            # deferred lazy-build time surfaces on the run that actually
            # materialized the levels (§5.15 build-included timing)
            result.metrics.build_seconds += lazy_charge
        return attach_profile(query, result, observer, plan.choice, order,
                              engine=engine, trace_out=trace_out)

    def _drain_lazy_charges(self) -> float:
        """Collect pending lazy materialization time from the structures."""
        total = 0.0
        for structure in self.structures.values():
            take = getattr(structure, "take_pending_charge", None)
            if callable(take):
                total += take()
        return total

    # ------------------------------------------------------------------
    def _execute_unified(self, materialize: bool, observer, charge: float,
                         trace_out: "str | None") -> JoinResult:
        """Run a stage-tree plan: children depth-first, root last.

        The root stage runs under the caller's observer (so the profile's
        level tree describes the root driver); child stages get private
        observers when profiling is on, and their per-stage summaries
        land on ``profile.stages``.  Lazy structures drain their pending
        materialization time into this run's ``metrics.build_seconds`` —
        deferred build cost surfaces on the execution that incurred it,
        preserving the §5.15 build-included timing contract.
        """
        plan = self.plan
        relations = dict(self.bound.relations)
        result, reports = self._run_stage(plan.root_stage, relations,
                                          observer, materialize, depth=0)
        metrics = result.metrics
        metrics.algorithm = "unified"
        if plan.index and not metrics.index:
            metrics.index = plan.index
        lazy_charge = 0.0
        for structure in self.structures.values():
            take = getattr(structure, "take_pending_charge", None)
            if callable(take):
                lazy_charge += take()
        metrics.build_seconds += charge + lazy_charge
        root = plan.root_stage
        order = root.total_order or root.atom_order
        engine = plan.engine if root.algorithm == "generic" else None
        result = attach_profile(self.bound.query, result, observer,
                                plan.choice, order, engine=engine,
                                trace_out=trace_out)
        if result.profile is not None:
            result.profile.stages = reports
        return result

    def _run_stage(self, stage: PlanStage, relations: dict, observer,
                   materialize: bool, depth: int):
        """Execute one stage (children first); returns (result, reports).

        Child outputs join as synthetic ``stage:<label>`` relations —
        ordinary :class:`~repro.storage.relation.Relation` objects over
        the materialized rows, which is what lets a binary pipeline
        stage probe a Generic Join sub-plan's output with zero special
        cases in the drivers.
        """
        plan = self.plan
        reports: list[dict] = []
        child_runs: list[JoinResult] = []
        for child in stage.children:
            child_obs = JoinObserver() if observer.enabled else NULL_OBSERVER
            child_result, child_reports = self._run_stage(
                child, relations, child_obs, True, depth + 1)
            reports.extend(child_reports)
            child_runs.append(child_result)
            feeder = stage_alias(child.label)
            relations[feeder] = Relation(feeder, child.output,
                                         child_result.rows)
        if stage.algorithm == "binary":
            stages = []
            for spec in stage.index_specs:
                key_arity = spec.key_arity or 0
                stages.append({
                    "alias": spec.alias,
                    "key_attrs": spec.attribute_order[:key_arity],
                    "payload_attrs": spec.attribute_order[key_arity:],
                    "key_positions": spec.permutation[:key_arity],
                    "payload_positions": spec.permutation[key_arity:],
                    "table": self.structures[spec.alias],
                })
            output = list(stage.query.attributes_of(stage.atom_order[0]))
            for entry in stages:
                output.extend(entry["payload_attrs"])
            driver = BinaryHashJoin(stage.query, relations,
                                    order=list(stage.atom_order),
                                    obs=observer,
                                    prebuilt=(stages, tuple(output)))
        else:
            adapters = {
                atom.alias: IndexAdapter(relations[atom.alias],
                                         self.structures[atom.alias],
                                         stage.total_order)
                for atom in stage.query.atoms
            }
            driver_cls = (GenericJoinBatch if stage.engine == "batch"
                          else GenericJoin)
            driver = driver_cls(stage.query, adapters,
                                order=stage.total_order,
                                dynamic_seed=plan.dynamic_seed, obs=observer)
            driver.metrics.index = built_kind(stage)
        result = driver.run(materialize=materialize)
        choice = stage.choice
        estimated = None
        if choice is not None:
            estimated = (choice.binary_estimate
                         if stage.algorithm == "binary" else choice.agm_bound)
        report = {
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
        }
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
        return result, [report] + reports

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release execution resources (idempotent; no-op when there are
        none).  A sharded prepared join shuts its worker pool down and —
        on the cold path, where no session cache co-owns them — unlinks
        the shared-memory shard segments.  Ordinary prepared joins hold
        nothing that needs releasing."""
        if self._runner is not None:
            self._runner.close()

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
