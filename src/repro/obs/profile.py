"""The EXPLAIN ANALYZE layer: per-level join profiles.

``join(..., profile=True)`` returns a :class:`~repro.joins.results.JoinResult`
whose ``profile`` is a :class:`JoinProfile`: the per-attribute-level tree
(seed relation chosen, candidates considered, survivors, time), the
hybrid optimizer's **estimated vs actual** cardinalities, the counter
registry and the span trace — renderable as an EXPLAIN ANALYZE-style
text tree (:meth:`JoinProfile.render`), as JSON
(:meth:`JoinProfile.to_json`), and as a Chrome ``trace_event`` document
(:meth:`JoinProfile.to_chrome_trace`).

The JSON layout is versioned (``schema_version``) and checked by
:func:`validate_profile` — the CI smoke job runs a profiled JOB-light
join and validates the artifact through exactly that function, so the
schema cannot drift silently.

A sharded run (``join(..., parallel=K, profile=True)``) produces a
:class:`ShardedJoinProfile`: the same top-level tree (levels aggregated
across shards) plus a ``sharding`` section with every shard's own level
tree, counters and clock-rebased spans, per-level min/median/max and
straggler ratios, and shard-balance stats.  Assembly lives in
:mod:`repro.obs.distributed`; the schema and validation live here.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass, field


#: bump when the JSON layout changes shape (validate_profile must follow)
#: v2: optional ``sharding`` section (ShardedJoinProfile, PR 9)
#: v3: ``stages`` list (the plan's stage tree)
#: v4: no ``stages`` list — a plan is one driver, which the header and
#: the level tree already describe
SCHEMA_VERSION = 4


class ProfileSchemaError(ValueError):
    """A profile payload does not match the documented schema."""


@dataclass
class LevelProfile:
    """One attribute level (or binary-pipeline stage) of the profile tree."""

    label: str                      # attribute name; stage alias for binary
    participants: tuple[str, ...]   # atoms intersected at this level
    candidates: int                 # values the seeds put up, total
    survivors: int                  # values accepted by every participant
    seconds: float                  # exclusive time at this level
    cumulative_seconds: float       # inclusive (this level + below)
    seed_counts: dict[str, int]     # alias -> times chosen as seed
    descends: int = 0
    ascends: int = 0

    @property
    def seed(self) -> str:
        """The most-chosen seed atom (ties broken by alias)."""
        if not self.seed_counts:
            return ""
        return max(sorted(self.seed_counts), key=self.seed_counts.get)

    def as_dict(self) -> dict:
        return {
            "label": self.label,
            "participants": list(self.participants),
            "candidates": self.candidates,
            "survivors": self.survivors,
            "seconds": round(self.seconds, 9),
            "cumulative_seconds": round(self.cumulative_seconds, 9),
            "seed_counts": dict(self.seed_counts),
            "descends": self.descends,
            "ascends": self.ascends,
        }


@dataclass
class JoinProfile:
    """Everything one profiled join run learned about itself."""

    query: str
    algorithm: str
    index: str
    order: tuple[str, ...]
    result_count: int
    build_seconds: float
    probe_seconds: float
    engine: "str | None" = None      # generic-join drivers only
    levels: list[LevelProfile] = field(default_factory=list)
    optimizer: "dict | None" = None
    counters: dict = field(default_factory=dict)
    histograms: dict = field(default_factory=dict)
    build_breakdown: dict = field(default_factory=dict)  # alias -> seconds
    #: alias -> [levels materialised, arity] of the batch engine's tries
    #: when the run ended (a trie builds a level on first descent)
    trie_levels: dict = field(default_factory=dict)
    spans: list[dict] = field(default_factory=list)

    @property
    def total_seconds(self) -> float:
        return self.build_seconds + self.probe_seconds

    # ------------------------------------------------------------------
    # Exports
    # ------------------------------------------------------------------
    def as_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "query": self.query,
            "algorithm": self.algorithm,
            "engine": self.engine,
            "index": self.index,
            "order": list(self.order),
            "result_count": self.result_count,
            "timings": {
                "build_s": round(self.build_seconds, 9),
                "probe_s": round(self.probe_seconds, 9),
                "total_s": round(self.total_seconds, 9),
                "build_breakdown": {alias: round(seconds, 9)
                                    for alias, seconds
                                    in sorted(self.build_breakdown.items())},
            },
            "optimizer": self.optimizer,
            "levels": [level.as_dict() for level in self.levels],
            "counters": dict(sorted(self.counters.items())),
            "trie_levels": {alias: list(levels) for alias, levels
                            in sorted(self.trie_levels.items())},
            "histograms": self.histograms,
            "spans": self.spans,
        }

    def to_json(self, indent: "int | None" = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent)

    def to_chrome_trace(self) -> dict:
        """The span trace as a Chrome ``trace_event`` document."""
        events = [
            {
                "name": span["name"],
                "ph": "X",
                "ts": span["ts_us"],
                "dur": span["dur_us"],
                "pid": 1,
                "tid": 1,
                "cat": "repro",
                "args": span.get("args", {}),
            }
            for span in self.spans
        ]
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    # ------------------------------------------------------------------
    # The EXPLAIN ANALYZE text tree
    # ------------------------------------------------------------------
    def render(self) -> str:
        lines = [f"EXPLAIN ANALYZE  {self.query}"]
        engine = f" engine={self.engine}" if self.engine else ""
        lines.append(
            f"algorithm={self.algorithm}{engine} index={self.index}  "
            f"order=({', '.join(self.order)})  results={self.result_count}"
        )
        lines.append(
            f"build {self.build_seconds * 1e3:.3f} ms"
            f"  probe {self.probe_seconds * 1e3:.3f} ms"
            f"  total {self.total_seconds * 1e3:.3f} ms"
        )
        if self.build_breakdown:
            parts = "  ".join(f"{alias}={seconds * 1e3:.3f}ms" for alias,
                              seconds in sorted(self.build_breakdown.items()))
            lines.append(f"  build breakdown: {parts}")
        if self.trie_levels:
            parts = "  ".join(f"{alias} built {built} of {total} levels"
                              for alias, (built, total)
                              in sorted(self.trie_levels.items()))
            lines.append(f"  trie levels: {parts}")
        if self.optimizer:
            opt = self.optimizer
            lines.append(f"optimizer: chose {opt['algorithm']} — {opt['reason']}")
            est, act = opt["estimated"], opt["actual"]
            lines.append(
                f"  estimated: AGM bound {est['agm_bound']:.4g}, "
                f"binary peak intermediates {est['binary_peak_intermediates']:.4g}"
            )
            lines.append(
                f"  actual:    {act['results']} results, "
                f"peak level cardinality {act['peak_level_cardinality']}, "
                f"{act['intermediate_tuples']} intermediate tuples"
            )
        probe = self.probe_seconds or 1.0
        # a counting run of the batch engine does not expand the levels
        # after the last attribute that joins anything
        tail = len(self.levels) - self.counters.get("frontier.tail_levels", 0)
        for depth, level in enumerate(self.levels[:tail]):
            pad = "   " * depth
            seed = level.seed
            chosen = level.seed_counts.get(seed, 0)
            total_choices = sum(level.seed_counts.values()) or 1
            seed_note = f"seed={seed}"
            if len(level.participants) > 1:
                seed_note += f" ({100 * chosen // total_choices}%)"
            pct = min(100.0 * level.seconds / probe, 100.0)
            lines.append(
                f"{pad}└─ {level.label}: {seed_note}"
                f"  candidates={level.candidates} survivors={level.survivors}"
                f"  {level.seconds * 1e3:.3f} ms ({pct:.0f}% of probe)"
            )
        if tail < len(self.levels):
            # the subtree count's time is on the tail's first level
            seconds = self.levels[tail].seconds
            labels = ", ".join(level.label for level in self.levels[tail:])
            lines.append(
                f"{'   ' * tail}└─ {labels}: counted from subtree sizes"
                f"  {seconds * 1e3:.3f} ms"
                f" ({min(100.0 * seconds / probe, 100.0):.0f}% of probe)"
            )
        if self.counters:
            lines.append("counters:")
            for name, value in sorted(self.counters.items()):
                lines.append(f"  {name} = {value}")
        for name, h in sorted(self.histograms.items()):
            lines.append(
                f"  {name}: n={h['count']} mean={h['mean']:.2f} "
                f"min={h['min']:.0f} max={h['max']:.0f}"
            )
        return "\n".join(lines)


@dataclass
class ShardedJoinProfile(JoinProfile):
    """A :class:`JoinProfile` for a ``parallel=K`` run.

    The inherited fields describe the *merged* run: top-level ``levels``
    aggregate candidates/survivors/time across shards, ``counters``
    carries the parent registry (worker counters folded in under the
    ``shard.`` prefix), ``spans`` the parent-side trace.  The extra
    fields carry the per-shard detail the distributed assembly
    (:mod:`repro.obs.distributed`) collected over the result pipes.
    """

    workers: int = 0
    partition_attribute: str = ""
    scheme: str = "hash"
    parent_pid: int = 0
    #: per-shard detail dicts (see ``docs/observability.md`` for keys)
    shards: list[dict] = field(default_factory=list)
    #: per-level min/median/max/straggler stats across shards
    level_stats: list[dict] = field(default_factory=list)
    #: shard-balance summary (emitted skew, wall-clock straggler)
    balance: dict = field(default_factory=dict)

    # ------------------------------------------------------------------
    def as_dict(self) -> dict:
        payload = super().as_dict()
        payload["sharding"] = {
            "workers": self.workers,
            "attribute": self.partition_attribute,
            "scheme": self.scheme,
            "parent_pid": self.parent_pid,
            "shards": self.shards,
            "level_stats": self.level_stats,
            "balance": self.balance,
        }
        return payload

    # ------------------------------------------------------------------
    def to_chrome_trace(self) -> dict:
        """One merged Chrome ``trace_event`` document: the parent's spans
        on its own pid row, each worker's clock-rebased spans on that
        worker's real pid row, with ``process_name`` metadata so Perfetto
        labels the rows.  All timestamps share the parent tracer's
        origin, so partition → fan-out → per-shard build/probe → merge
        reads as one timeline."""
        events: list[dict] = [
            {"name": "process_name", "ph": "M", "pid": self.parent_pid,
             "tid": 0, "args": {"name": f"parent (pid {self.parent_pid})"}},
            {"name": "process_sort_index", "ph": "M", "pid": self.parent_pid,
             "tid": 0, "args": {"sort_index": 0}},
        ]
        for span in self.spans:
            events.append({
                "name": span["name"], "ph": "X",
                "ts": span["ts_us"], "dur": span["dur_us"],
                "pid": self.parent_pid, "tid": 1, "cat": "repro",
                "args": span.get("args", {}),
            })
        for entry in self.shards:
            if entry.get("skipped") or entry.get("pid") is None:
                continue
            pid, shard = entry["pid"], entry["shard"]
            events.append({
                "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
                "args": {"name": f"worker shard {shard} (pid {pid})"},
            })
            events.append({
                "name": "process_sort_index", "ph": "M", "pid": pid,
                "tid": 0, "args": {"sort_index": shard + 1},
            })
            for span in entry.get("spans", ()):
                events.append({
                    "name": span["name"], "ph": "X",
                    "ts": span["ts_us"], "dur": span["dur_us"],
                    "pid": pid, "tid": 1, "cat": "repro",
                    "args": span.get("args", {}),
                })
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    # ------------------------------------------------------------------
    def render(self) -> str:
        lines = [super().render()]
        executed = [s for s in self.shards if not s.get("skipped")]
        straggler = self.balance.get("straggler_shard")
        ratio = self.balance.get("straggler_ratio", 1.0)
        lines.append(
            f"sharding: {self.workers} workers on {self.partition_attribute}"
            f" ({self.scheme}), {len(executed)} executed /"
            f" {len(self.shards) - len(executed)} skipped"
        )
        for entry in self.shards:
            shard = entry["shard"]
            if entry.get("skipped"):
                lines.append(f"  shard {shard}: skipped (empty partition)")
                continue
            total_ms = (entry["build_s"] + entry["probe_s"]) * 1e3
            note = ""
            if shard == straggler and len(executed) > 1:
                note = f"   <-- straggler ({ratio:.2f}x median)"
            lines.append(
                f"  shard {shard} pid={entry.get('pid')}: "
                f"{entry['count']} results  build {entry['build_s'] * 1e3:.3f} ms"
                f"  probe {entry['probe_s'] * 1e3:.3f} ms"
                f"  total {total_ms:.3f} ms{note}"
            )
        for stat in self.level_stats:
            seconds = stat["seconds"]
            lines.append(
                f"  level {stat['label']}: "
                f"min {seconds['min'] * 1e3:.3f} / med {seconds['median'] * 1e3:.3f}"
                f" / max {seconds['max'] * 1e3:.3f} ms"
                f"  straggler x{stat['straggler_ratio']:.2f}"
            )
        emitted = self.balance.get("emitted")
        if emitted:
            lines.append(
                f"  balance: emitted min {emitted['min']} / med"
                f" {emitted['median']:.0f} / max {emitted['max']} per shard"
                f"  (skew x{self.balance.get('skew', 1.0):.2f})"
            )
        return "\n".join(lines)


def shard_distribution(values: "list[float]") -> dict:
    """min/median/max/total summary of one per-shard quantity."""
    if not values:
        return {"min": 0, "median": 0, "max": 0, "total": 0}
    return {
        "min": min(values),
        "median": statistics.median(values),
        "max": max(values),
        "total": sum(values),
    }


def straggler_ratio(seconds: "list[float]") -> float:
    """max/median wall-clock ratio across shards (1.0 = perfectly even)."""
    if not seconds:
        return 1.0
    median = statistics.median(seconds)
    if median <= 0.0:
        return 1.0
    return max(seconds) / median


# ----------------------------------------------------------------------
# Assembly (called by the executor once the run finishes)
# ----------------------------------------------------------------------
def build_profile(*, query: str, algorithm: str, index: str,
                  order, metrics, observer,
                  engine: "str | None" = None,
                  choice=None) -> JoinProfile:
    """Fold an observer + driver metrics into a :class:`JoinProfile`.

    ``metrics`` is the driver's :class:`~repro.joins.results.JoinMetrics`
    (timings + result count); ``choice`` the optimizer's
    :class:`~repro.planner.optimizer.PlanChoice`, when one was computed.
    """
    stats = list(observer.levels)
    levels: list[LevelProfile] = []
    for depth, st in enumerate(stats):
        inclusive = st.time_ns
        below = stats[depth + 1].time_ns if depth + 1 < len(stats) else 0
        levels.append(LevelProfile(
            label=st.label,
            participants=st.participants,
            candidates=st.candidates,
            survivors=st.survivors,
            seconds=max(inclusive - below, 0) * 1e-9,
            cumulative_seconds=inclusive * 1e-9,
            seed_counts=dict(st.seed_counts),
            descends=st.descends,
            ascends=st.ascends,
        ))

    registry = observer.metrics
    for st in stats:
        registry.inc("level.candidates", st.candidates)
        registry.inc("level.survivors", st.survivors)
        registry.inc("cursor.descend", st.descends)
        registry.inc("cursor.ascend", st.ascends)
    registry.inc("join.emitted", metrics.result_count)
    registry.inc("probe.lookups", metrics.lookups)

    optimizer = None
    if choice is not None:
        peak = max((level.survivors for level in levels), default=0)
        optimizer = {
            "algorithm": choice.algorithm,
            "reason": choice.reason,
            "estimated": {
                "agm_bound": choice.agm_bound,
                "binary_peak_intermediates": choice.binary_estimate,
            },
            "actual": {
                "results": metrics.result_count,
                "peak_level_cardinality": peak,
                "intermediate_tuples": metrics.intermediate_tuples,
            },
        }

    snapshot = registry.as_dict()
    return JoinProfile(
        query=query,
        algorithm=algorithm,
        engine=engine,
        index=index,
        order=tuple(order),
        result_count=metrics.result_count,
        build_seconds=metrics.build_seconds,
        probe_seconds=metrics.probe_seconds,
        levels=levels,
        optimizer=optimizer,
        counters=snapshot["counters"],
        histograms=snapshot["histograms"],
        build_breakdown={alias: ns * 1e-9
                         for alias, ns in observer.build_ns.items()},
        trie_levels=dict(observer.trie_levels),
        spans=observer.tracer.as_dicts(),
    )


# ----------------------------------------------------------------------
# Schema validation (the CI artifact gate)
# ----------------------------------------------------------------------
def _expect(condition: bool, where: str, message: str) -> None:
    if not condition:
        raise ProfileSchemaError(f"{where}: {message}")


def _expect_number(value, where: str, minimum: "float | None" = None) -> None:
    _expect(isinstance(value, (int, float)) and not isinstance(value, bool),
            where, f"expected a number, got {type(value).__name__}")
    if minimum is not None:
        _expect(value >= minimum, where, f"expected >= {minimum}, got {value}")


def _validate_levels(levels, where: str) -> None:
    _expect(isinstance(levels, list), where, "expected a list")
    for position, level in enumerate(levels):
        loc = f"{where}[{position}]"
        _expect(isinstance(level, dict), loc, "expected an object")
        _expect(isinstance(level.get("label"), str) and level["label"],
                f"{loc}.label", "expected a non-empty string")
        parts = level.get("participants")
        _expect(isinstance(parts, list) and parts
                and all(isinstance(p, str) for p in parts),
                f"{loc}.participants", "expected a non-empty list of aliases")
        for key in ("candidates", "survivors", "descends", "ascends"):
            _expect(isinstance(level.get(key), int) and level[key] >= 0,
                    f"{loc}.{key}", "expected a non-negative int")
        for key in ("seconds", "cumulative_seconds"):
            _expect_number(level.get(key), f"{loc}.{key}", minimum=0.0)
        seeds = level.get("seed_counts")
        _expect(isinstance(seeds, dict), f"{loc}.seed_counts",
                "expected an object")
        for alias, count in seeds.items():
            _expect(alias in parts, f"{loc}.seed_counts.{alias}",
                    "seed alias not among the level's participants")
            _expect(isinstance(count, int) and count >= 0,
                    f"{loc}.seed_counts.{alias}",
                    "expected a non-negative int")


def _validate_spans(spans, where: str) -> None:
    _expect(isinstance(spans, list), where, "expected a list")
    for position, span in enumerate(spans):
        loc = f"{where}[{position}]"
        _expect(isinstance(span, dict), loc, "expected an object")
        _expect(isinstance(span.get("name"), str) and span["name"],
                f"{loc}.name", "expected a non-empty string")
        _expect_number(span.get("ts_us"), f"{loc}.ts_us")
        _expect_number(span.get("dur_us"), f"{loc}.dur_us", minimum=0.0)


def _validate_distribution(dist, where: str, totaled: bool = True) -> None:
    _expect(isinstance(dist, dict), where, "expected an object")
    keys = ("min", "median", "max") + (("total",) if totaled else ())
    for key in keys:
        _expect_number(dist.get(key), f"{where}.{key}", minimum=0.0)


def _validate_sharding(sharding: dict) -> None:
    where = "sharding"
    _expect(isinstance(sharding, dict), where, "expected an object")
    _expect(isinstance(sharding.get("workers"), int)
            and sharding["workers"] >= 1,
            f"{where}.workers", "expected a positive int")
    _expect(isinstance(sharding.get("attribute"), str)
            and sharding["attribute"],
            f"{where}.attribute", "expected a non-empty string")
    _expect(isinstance(sharding.get("scheme"), str) and sharding["scheme"],
            f"{where}.scheme", "expected a non-empty string")
    _expect(isinstance(sharding.get("parent_pid"), int)
            and sharding["parent_pid"] >= 0,
            f"{where}.parent_pid", "expected a non-negative int")

    shards = sharding.get("shards")
    _expect(isinstance(shards, list) and shards,
            f"{where}.shards", "expected a non-empty list")
    for position, entry in enumerate(shards):
        loc = f"{where}.shards[{position}]"
        _expect(isinstance(entry, dict), loc, "expected an object")
        _expect(isinstance(entry.get("shard"), int) and entry["shard"] >= 0,
                f"{loc}.shard", "expected a non-negative int")
        _expect(isinstance(entry.get("skipped"), bool), f"{loc}.skipped",
                "expected a bool")
        _expect(isinstance(entry.get("count"), int) and entry["count"] >= 0,
                f"{loc}.count", "expected a non-negative int")
        for key in ("build_s", "probe_s"):
            _expect_number(entry.get(key), f"{loc}.{key}", minimum=0.0)
        if entry["skipped"]:
            continue
        _expect(isinstance(entry.get("pid"), int) and entry["pid"] > 0,
                f"{loc}.pid", "expected a positive int")
        _expect(isinstance(entry.get("clock_offset_ns"), int),
                f"{loc}.clock_offset_ns", "expected an int")
        counters = entry.get("counters")
        _expect(isinstance(counters, dict), f"{loc}.counters",
                "expected an object")
        for name, value in counters.items():
            _expect(isinstance(value, int), f"{loc}.counters.{name}",
                    "expected an int")
        _validate_levels(entry.get("levels"), f"{loc}.levels")
        _validate_spans(entry.get("spans"), f"{loc}.spans")

    level_stats = sharding.get("level_stats")
    _expect(isinstance(level_stats, list), f"{where}.level_stats",
            "expected a list")
    for position, stat in enumerate(level_stats):
        loc = f"{where}.level_stats[{position}]"
        _expect(isinstance(stat, dict), loc, "expected an object")
        _expect(isinstance(stat.get("label"), str) and stat["label"],
                f"{loc}.label", "expected a non-empty string")
        _validate_distribution(stat.get("seconds"), f"{loc}.seconds")
        _validate_distribution(stat.get("survivors"), f"{loc}.survivors")
        _expect_number(stat.get("straggler_ratio"), f"{loc}.straggler_ratio",
                       minimum=1.0)

    balance = sharding.get("balance")
    _expect(isinstance(balance, dict), f"{where}.balance",
            "expected an object")
    _validate_distribution(balance.get("emitted"), f"{where}.balance.emitted")
    _validate_distribution(balance.get("total_s"), f"{where}.balance.total_s",
                           totaled=False)
    _expect(balance.get("straggler_shard") is None
            or isinstance(balance["straggler_shard"], int),
            f"{where}.balance.straggler_shard", "expected an int or null")
    _expect_number(balance.get("straggler_ratio"),
                   f"{where}.balance.straggler_ratio", minimum=1.0)
    _expect_number(balance.get("skew"), f"{where}.balance.skew", minimum=0.0)


def validate_profile(payload: dict) -> dict:
    """Check a :meth:`JoinProfile.as_dict` payload against the schema.

    Covers both the single-process layout and the sharded layout (an
    optional ``sharding`` section, :class:`ShardedJoinProfile`).  Raises
    :class:`ProfileSchemaError` on the first mismatch; returns the
    payload unchanged so the call composes
    (``validate_profile(json.load(f))``).
    """
    _expect(isinstance(payload, dict), "$", "profile must be an object")
    _expect(payload.get("schema_version") == SCHEMA_VERSION, "schema_version",
            f"expected {SCHEMA_VERSION}, got {payload.get('schema_version')!r}")
    for key in ("query", "algorithm", "index"):
        _expect(isinstance(payload.get(key), str) and payload[key],
                key, "expected a non-empty string")
    engine = payload.get("engine")
    _expect(engine is None or isinstance(engine, str), "engine",
            "expected a string or null")
    order = payload.get("order")
    _expect(isinstance(order, list) and all(isinstance(a, str) for a in order),
            "order", "expected a list of attribute names")
    _expect(isinstance(payload.get("result_count"), int)
            and payload["result_count"] >= 0,
            "result_count", "expected a non-negative int")

    timings = payload.get("timings")
    _expect(isinstance(timings, dict), "timings", "expected an object")
    for key in ("build_s", "probe_s", "total_s"):
        _expect_number(timings.get(key), f"timings.{key}", minimum=0.0)
    breakdown = timings.get("build_breakdown", {})
    _expect(isinstance(breakdown, dict), "timings.build_breakdown",
            "expected an object")
    for alias, seconds in breakdown.items():
        _expect_number(seconds, f"timings.build_breakdown.{alias}", minimum=0.0)

    _validate_levels(payload.get("levels"), "levels")

    optimizer = payload.get("optimizer")
    if optimizer is not None:
        _expect(isinstance(optimizer, dict), "optimizer", "expected an object")
        _expect(isinstance(optimizer.get("algorithm"), str),
                "optimizer.algorithm", "expected a string")
        _expect(isinstance(optimizer.get("reason"), str),
                "optimizer.reason", "expected a string")
        estimated = optimizer.get("estimated")
        _expect(isinstance(estimated, dict), "optimizer.estimated",
                "expected an object")
        for key in ("agm_bound", "binary_peak_intermediates"):
            _expect_number(estimated.get(key), f"optimizer.estimated.{key}")
        actual = optimizer.get("actual")
        _expect(isinstance(actual, dict), "optimizer.actual",
                "expected an object")
        for key in ("results", "peak_level_cardinality", "intermediate_tuples"):
            _expect(isinstance(actual.get(key), int) and actual[key] >= 0,
                    f"optimizer.actual.{key}", "expected a non-negative int")

    counters = payload.get("counters")
    _expect(isinstance(counters, dict), "counters", "expected an object")
    for name, value in counters.items():
        _expect(isinstance(value, int), f"counters.{name}", "expected an int")

    for alias, levels in payload.get("trie_levels", {}).items():
        _expect(isinstance(levels, list) and len(levels) == 2
                and all(isinstance(n, int) for n in levels)
                and 0 <= levels[0] <= levels[1],
                f"trie_levels.{alias}", "expected [built, total] levels")

    _validate_spans(payload.get("spans"), "spans")

    sharding = payload.get("sharding")
    if sharding is not None:
        _validate_sharding(sharding)
    return payload
