"""The prepared join: built once, executable many times.

A :class:`PreparedJoin` is the prepare stage's output — a bound query, a
:class:`~repro.engine.ir.JoinPlan`, and every supporting structure the
plan needs, already built (and possibly shared with a session's index
cache).  Each :meth:`~PreparedJoin.execute` call constructs a fresh
driver over the shared structures — drivers keep per-run state
(cursors, sinks, metrics) so the structures themselves are safely
reusable — and returns an ordinary
:class:`~repro.joins.results.JoinResult`.  A frontier (batch) plan's
driver is a :class:`~repro.joins.batch.FrontierProgram`, compiled on
the first execution and kept in :attr:`PreparedJoin.programs`, plus
the per-run state; the program reads each trie and its spec's
attribute order directly, with no adapter in between.

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
from repro.engine.ir import BoundQuery, JoinPlan, built_kind
from repro.errors import ExecutionError
from repro.joins.batch import FrontierProgram, GenericJoinBatch
from repro.joins.binary import BinaryHashJoin
from repro.joins.executor import attach_profile
from repro.joins.generic_join import GenericJoin
from repro.joins.hashtrie_join import HashTrieJoin
from repro.joins.leapfrog import LeapfrogTrieJoin
from repro.joins.recursive import RecursiveJoin
from repro.joins.results import JoinResult
from repro.obs.observer import resolve_observer


class PreparedJoin:
    """An executable join with its supporting structures already built.

    A single-process plan runs one driver (:meth:`_driver`); a sharded
    plan hands its decisions to a
    :class:`~repro.parallel.runner.ShardedRunner` and must be
    :meth:`close`-d, after which it cannot execute again.
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
        #: a binary plan's leading-atom row count when the structures
        #: were built: the plan scans that atom up to here, so an answer
        #: is of the prepared version even after an append (the stage
        #: tables are already pinned to it)
        self._prepared_rows = None
        #: the stateless wrappers the tuple-engine generic and Hash-Trie
        #: drivers read the structures through, shared by every execution
        self._adapters: dict[str, IndexAdapter] = {}
        #: compiled frontier programs by trie shape (batch plans), shared
        #: by every execution; a Session hands each prepared join of one
        #: cached plan the same dict
        self.programs: dict[tuple, FrontierProgram] = {}
        if plan.sharding is None:
            if plan.algorithm == "binary":
                leading = plan.atom_order[0]
                self._prepared_rows = len(bound.relations[leading])
            elif plan.algorithm == "hashtrie" or (
                    plan.algorithm == "generic" and plan.engine == "tuple"):
                self._adapters = {
                    atom.alias: IndexAdapter(bound.relations[atom.alias],
                                             structures[atom.alias],
                                             plan.total_order)
                    for atom in plan.query.atoms
                }
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
    def _driver(self, observer):
        """A fresh driver over the shared structures."""
        plan, relations = self.plan, self.bound.relations
        algorithm, query = plan.algorithm, plan.query
        if algorithm == "binary":
            return BinaryHashJoin(query, relations,
                                  order=list(plan.atom_order), obs=observer,
                                  prebuilt=(self.structures,
                                            self._prepared_rows))
        if algorithm == "leapfrog":
            return LeapfrogTrieJoin(query, relations, order=plan.total_order,
                                    obs=observer, tries=self.structures)
        if algorithm == "recursive":
            return RecursiveJoin(query, relations, order=plan.total_order,
                                 edges=self.structures)
        if algorithm == "hashtrie":
            return HashTrieJoin(query, relations, order=plan.total_order,
                                obs=observer, adapters=self._adapters)
        if plan.engine == "batch":
            tries = [self.structures[atom.alias] for atom in query.atoms]
            driver = GenericJoinBatch(self._program(tries), tries,
                                      dynamic_seed=plan.dynamic_seed,
                                      obs=observer)
        else:
            driver = GenericJoin(query, self._adapters,
                                 order=plan.total_order,
                                 dynamic_seed=plan.dynamic_seed, obs=observer)
        # what was built, which is not always what was asked for
        driver.metrics.index = built_kind(plan)
        return driver

    def _program(self, tries: list) -> FrontierProgram:
        """The frontier program for tries of this shape, compiled on
        first use.  Two threads may both compile it; one is kept."""
        shape = tuple((trie.weights is None, trie.decoders)
                      for trie in tries)
        program = self.programs.get(shape)
        if program is None:
            plan = self.plan
            program = self.programs.setdefault(shape, FrontierProgram(
                plan.query, plan.total_order,
                [plan.spec_for(atom.alias).attribute_order
                 for atom in plan.query.atoms], tries))
        return program

    # ------------------------------------------------------------------
    def execute(self, materialize: bool = False, obs=None,
                profile: "bool | None" = None,
                trace_out: "str | None" = None) -> JoinResult:
        """Run the prepared join once: a fresh driver, shared structures.

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
                "this sharded prepared join is closed: its shared-memory "
                "columns are released; prepare the query again to "
                "execute it")
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
        result = self._driver(observer).run(materialize=materialize)
        # deferred build time — trie levels — surfaces on the run that
        # actually materialized them (§5.15 build-included timing)
        deferred = self._drain_lazy_charges()
        if deferred:
            with self._accounting:
                self.build_seconds += deferred
        result.metrics.build_seconds += charge + deferred
        return attach_profile(self.bound.query, result, observer,
                              plan.choice,
                              plan.total_order or plan.atom_order,
                              engine=plan.engine or None,
                              trace_out=trace_out)

    def _drain_lazy_charges(self) -> float:
        """Collect pending materialization time from the structures (a
        columnar trie's levels)."""
        total = 0.0
        for structure in self.structures.values():
            take = getattr(structure, "take_pending_charge", None)
            if callable(take):
                total += take()
        return total

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release execution resources (idempotent; no-op when there are
        none).  A sharded prepared join owns no worker process — its
        executions borrow the process-wide pools — so closing it
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
