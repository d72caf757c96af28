"""The prepared join: built once, executable many times.

A :class:`PreparedJoin` is the prepare stage's output — a bound query, a
frontier :class:`~repro.engine.ir.JoinPlan`, and one columnar trie per
atom, already built (and possibly shared with a session's index cache).
Each :meth:`~PreparedJoin.execute` call runs a fresh
:class:`~repro.joins.batch.GenericJoinBatch` — per-run state (sinks,
metrics) over the shared tries, which are safely reusable — and returns
an ordinary :class:`~repro.joins.results.JoinResult`.  The driver's
:class:`~repro.joins.batch.FrontierProgram` is compiled on the first
execution and kept in :attr:`PreparedJoin.programs`; it reads each trie
and its spec's attribute order directly.  The paper's tuple drivers are
never prepared: :func:`repro.joins.join` runs them cold.

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

from repro.engine.ir import BoundQuery, JoinPlan
from repro.errors import ExecutionError
from repro.joins.batch import FrontierProgram, GenericJoinBatch
from repro.joins.executor import attach_profile
from repro.joins.results import JoinResult
from repro.obs.observer import resolve_observer


class PreparedJoin:
    """An executable frontier join with its tries already built.

    A single-process plan runs one
    :class:`~repro.joins.batch.GenericJoinBatch` per execution; a
    sharded plan hands its decisions to a
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
        #: compiled frontier programs by trie shape, shared by every
        #: execution; a Session hands each prepared join of one cached
        #: plan the same dict
        self.programs: dict[tuple, FrontierProgram] = {}
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
    def _driver(self, observer) -> GenericJoinBatch:
        """A fresh frontier driver over the shared tries."""
        tries = [self.structures[atom.alias]
                 for atom in self.plan.query.atoms]
        return GenericJoinBatch(self._program(tries), tries,
                                dynamic_seed=self.plan.dynamic_seed,
                                obs=observer)

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
            # hands the workers' profiles to the observer, which the
            # profile below is built from
            result = self._runner.execute(materialize=materialize,
                                          obs=observer, build_charge=charge)
        else:
            result = self._driver(observer).run(materialize=materialize)
            # deferred build time — trie levels — surfaces on the run
            # that actually materialized them (§5.15 build-included
            # timing)
            deferred = sum(trie.take_pending_charge()
                           for trie in self.structures.values())
            if deferred:
                with self._accounting:
                    self.build_seconds += deferred
            result.metrics.build_seconds += charge + deferred
        return attach_profile(self.bound.query, result, observer,
                              plan.choice, plan.total_order,
                              engine=plan.engine, trace_out=trace_out)

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
