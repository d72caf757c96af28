"""The per-run observer the join drivers write into.

One :class:`JoinObserver` travels with one join execution: it bundles a
:class:`~repro.obs.metrics.Metrics` registry, a
:class:`~repro.obs.trace.Tracer`, the per-attribute-level accumulators
(:class:`LevelStats`) and the per-adapter build times.  The executor
creates it (``join(..., profile=True)``), threads it through the driver
and the index cursors, and finally folds it into a
:class:`~repro.obs.profile.JoinProfile`.

**One path.**  Drivers receive either an enabled observer or
:data:`NULL_OBSERVER`, and run the same probe recursion under both.
The driver owns its per-level :class:`LevelStats`
(:meth:`JoinObserver.init_levels` makes them; an enabled observer keeps
the same objects, the shared disabled one keeps nothing, so it is never
written from a run).  Each invocation counts in local ints and adds
them to the level's slots once — never a method call per binding — and
``JoinMetrics.lookups`` / ``intermediate_tuples`` are summed from the
levels when the run ends.  ``obs.enabled`` is read once per run: it
decides whether the tuple-at-a-time drivers read the clock around an
invocation, and guards every metrics/tracer call inside a loop.

The semantic meaning of ``candidates``/``survivors`` per algorithm is
documented in ``docs/observability.md``.
"""

from __future__ import annotations

import time
from collections.abc import Sequence

from repro.core.envflag import resolve_flag
from repro.obs.metrics import Metrics, NULL_METRICS
from repro.obs.trace import NULL_TRACER, Tracer


class LevelStats:
    """Accumulators for one attribute level (or pipeline stage).

    * ``candidates`` — values the level's seed put up for intersection;
    * ``survivors`` — values every participant accepted (= partial
      bindings entering the next level; at the last level, emitted
      results);
    * ``descends``/``ascends`` — cursor movements issued by the driver;
    * ``time_ns`` — *inclusive* time spent at this level across all its
      invocations (children included; the profile derives exclusive
      time as ``incl[d] - incl[d+1]``);
    * ``seed_counts`` — how often each participating atom was chosen as
      the enumeration seed (the Alg. 1 line 9/10 decision, per binding).
    """

    __slots__ = ("label", "participants", "candidates", "survivors",
                 "descends", "ascends", "time_ns", "seed_counts")

    def __init__(self, label: str, participants: Sequence[str]):
        self.label = label
        self.participants: tuple[str, ...] = tuple(participants)
        self.candidates = 0
        self.survivors = 0
        self.descends = 0
        self.ascends = 0
        self.time_ns = 0
        self.seed_counts: dict[str, int] = dict.fromkeys(self.participants, 0)


class JoinObserver:
    """Everything one profiled join run writes into."""

    __slots__ = ("enabled", "metrics", "tracer", "levels", "build_ns",
                 "trie_levels", "sharding", "shards")

    def __init__(self, metrics: "Metrics | None" = None,
                 tracer: "Tracer | None" = None, enabled: bool = True):
        self.enabled = enabled
        if enabled:
            self.metrics = Metrics() if metrics is None else metrics
            self.tracer = Tracer() if tracer is None else tracer
        else:
            self.metrics = NULL_METRICS
            self.tracer = NULL_TRACER
        self.levels: list[LevelStats] = []
        self.build_ns: dict[str, int] = {}
        #: alias -> (levels materialised, arity) of the columnar tries a
        #: batch run read, as it ended
        self.trie_levels: dict[str, tuple[int, int]] = {}
        #: a sharded run's fan-out (its plan's ``ShardingSpec``) and, per
        #: shard, the worker's own profile (``None``: skipped as empty)
        self.sharding = None
        self.shards: list = []

    @classmethod
    def disabled(cls) -> "JoinObserver":
        """An explicitly-disabled observer (null metrics, null tracer).

        Behaviourally identical to passing no observer at all; exists so
        a caller can thread a *present-but-off* observer (the end-to-end
        benchmark measures that "disabled" and "absent" cost the same).
        """
        return cls(enabled=False)

    # ------------------------------------------------------------------
    def init_levels(self, labels: Sequence[str],
                    participants: Sequence[Sequence[str]],
                    ) -> list[LevelStats]:
        """Fresh per-level accumulators for one run, owned by the driver
        that asked; an enabled observer keeps the same objects as
        ``levels``.  A disabled one keeps nothing — :data:`NULL_OBSERVER`
        is shared by every un-profiled run on every thread."""
        levels = [LevelStats(label, parts)
                  for label, parts in zip(labels, participants)]
        if self.enabled:
            self.levels = levels
        return levels

    def record_build(self, alias: str, start_ns: int, **attrs) -> None:
        """One atom's structure build, begun at ``start_ns`` and ending
        now (the WCOJ build phase, §5.15): its time, a count, and a
        ``build_index`` span carrying ``attrs`` (``index``, ``tuples``)."""
        duration_ns = time.perf_counter_ns() - start_ns   # Stopwatch's clock
        self.build_ns[alias] = self.build_ns.get(alias, 0) + duration_ns
        self.metrics.inc("build.indexes")
        self.tracer.add_span("build_index", start_ns, duration_ns,
                             alias=alias, **attrs)


#: the shared disabled observer handed to every un-profiled driver
NULL_OBSERVER = JoinObserver.disabled()


def resolve_observer(profile: "bool | None", obs: "JoinObserver | None",
                     ) -> JoinObserver:
    """The observer one call runs under: an explicit ``obs`` wins, else
    ``profile`` (default: the ``REPRO_PROFILE`` environment variable)
    makes a private one, else the shared disabled one."""
    if obs is not None:
        return obs
    if resolve_flag(profile, "REPRO_PROFILE"):
        return JoinObserver()
    return NULL_OBSERVER
