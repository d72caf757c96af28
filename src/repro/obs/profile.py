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

A sharded run (``join(..., parallel=K, profile=True)``) produces the
same :class:`JoinProfile`, with a ``sharding`` header and the workers'
own profiles as its ``shards``: its level tree is theirs summed, and
:meth:`~JoinProfile.render` and :meth:`~JoinProfile.to_chrome_trace`
read the per-shard detail from them.  The shards travel as
:meth:`~JoinProfile.as_dict` payloads and are revived by
:meth:`~JoinProfile.from_dict`; :func:`validate_profile` checks each one
by calling itself.
"""

from __future__ import annotations

import json
import os
import statistics
from dataclasses import dataclass, field

from repro.obs.trace import chrome_event


#: bump when the JSON layout changes shape (validate_profile must follow)
#: v2: optional ``sharding`` section
#: v3: ``stages`` list (the plan's stage tree)
#: v4: no ``stages`` list — a plan is one driver, which the header and
#: the level tree already describe
#: v5: a ``pid`` on every profile; ``sharding`` is the fan-out header
#: plus ``shards``, each a full profile (``null`` for a skipped shard)
SCHEMA_VERSION = 5


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


@dataclass
class JoinProfile:
    """Everything one profiled join run learned about itself.

    A sharded run's profile has a ``sharding`` header (``workers``,
    ``attribute``, ``scheme``) and one entry per shard in ``shards``:
    that worker's own profile, spans rebased onto this profile's
    timeline, or ``None`` for a shard skipped as empty.  Its ``levels``
    are the shards' summed position by position.
    """

    query: str
    algorithm: str
    index: str
    order: tuple[str, ...]
    result_count: int
    build_seconds: float
    probe_seconds: float
    engine: "str | None" = None      # generic-join drivers only
    pid: int = 0
    levels: list[LevelProfile] = field(default_factory=list)
    optimizer: "dict | None" = None
    counters: dict = field(default_factory=dict)
    histograms: dict = field(default_factory=dict)
    build_breakdown: dict = field(default_factory=dict)  # alias -> seconds
    #: alias -> [levels materialised, arity] of the batch engine's tries
    #: when the run ended (a trie builds a level on first descent)
    trie_levels: dict = field(default_factory=dict)
    spans: list[dict] = field(default_factory=list)
    sharding: "dict | None" = None
    shards: "list[JoinProfile | None]" = field(default_factory=list)

    @property
    def total_seconds(self) -> float:
        return self.build_seconds + self.probe_seconds

    # ------------------------------------------------------------------
    # Exports
    # ------------------------------------------------------------------
    def as_dict(self) -> dict:
        build_s = round(self.build_seconds, 9)
        probe_s = round(self.probe_seconds, 9)
        sharding = None
        if self.sharding is not None:
            sharding = dict(self.sharding, shards=[
                None if shard is None else shard.as_dict()
                for shard in self.shards])
        return {
            "schema_version": SCHEMA_VERSION,
            "query": self.query,
            "algorithm": self.algorithm,
            "engine": self.engine,
            "index": self.index,
            "order": list(self.order),
            "result_count": self.result_count,
            "pid": self.pid,
            "timings": {
                "build_s": build_s,
                "probe_s": probe_s,
                "total_s": round(build_s + probe_s, 9),
                "build_breakdown": {alias: round(seconds, 9)
                                    for alias, seconds
                                    in sorted(self.build_breakdown.items())},
            },
            "optimizer": self.optimizer,
            "levels": [dict(vars(level),
                            participants=list(level.participants),
                            seconds=round(level.seconds, 9),
                            cumulative_seconds=round(
                                level.cumulative_seconds, 9),
                            seed_counts=dict(level.seed_counts))
                       for level in self.levels],
            "counters": dict(sorted(self.counters.items())),
            "trie_levels": {alias: list(levels) for alias, levels
                            in sorted(self.trie_levels.items())},
            "histograms": self.histograms,
            "spans": self.spans,
            "sharding": sharding,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "JoinProfile":
        """The profile an :meth:`as_dict` payload describes."""
        timings = payload["timings"]
        sharding = payload["sharding"]
        shards = sharding["shards"] if sharding else []
        return cls(
            query=payload["query"],
            algorithm=payload["algorithm"],
            index=payload["index"],
            order=tuple(payload["order"]),
            result_count=payload["result_count"],
            build_seconds=timings["build_s"],
            probe_seconds=timings["probe_s"],
            engine=payload["engine"],
            pid=payload["pid"],
            levels=[LevelProfile(**dict(
                        level, participants=tuple(level["participants"])))
                    for level in payload["levels"]],
            optimizer=payload["optimizer"],
            counters=payload["counters"],
            histograms=payload["histograms"],
            build_breakdown=timings["build_breakdown"],
            trie_levels={alias: tuple(levels) for alias, levels
                         in payload["trie_levels"].items()},
            spans=payload["spans"],
            sharding=sharding and {key: value for key, value
                                   in sharding.items() if key != "shards"},
            shards=[None if shard is None else cls.from_dict(shard)
                    for shard in shards],
        )

    def to_json(self, indent: "int | None" = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent)

    def to_chrome_trace(self) -> dict:
        """The span trace as a Chrome ``trace_event`` document.

        A sharded profile puts its own spans on its pid row and each
        worker's on that worker's pid row, labelled by ``process_name``
        metadata; every timestamp is on this profile's timeline, so
        partition → fan-out → per-shard build/probe → merge reads as one.
        """
        if self.sharding is None:
            return {"traceEvents": [chrome_event(span) for span in self.spans],
                    "displayTimeUnit": "ms"}
        rows = [(self.pid, f"parent (pid {self.pid})", self.spans)]
        rows += [(shard.pid, f"worker shard {position} (pid {shard.pid})",
                  shard.spans)
                 for position, shard in enumerate(self.shards)
                 if shard is not None]
        events: list[dict] = []
        for sort_index, (pid, name, spans) in enumerate(rows):
            events.append({"name": "process_name", "ph": "M", "pid": pid,
                           "tid": 0, "args": {"name": name}})
            events.append({"name": "process_sort_index", "ph": "M",
                           "pid": pid, "tid": 0,
                           "args": {"sort_index": sort_index}})
            events.extend(chrome_event(span, pid) for span in spans)
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
        if self.sharding is not None:
            lines.extend(self._render_shards())
        return "\n".join(lines)

    def _render_shards(self) -> list[str]:
        """Per-shard lines, per-level spread and the straggler, computed
        from ``shards``."""
        executed = [(position, shard)
                    for position, shard in enumerate(self.shards)
                    if shard is not None]
        totals = [shard.total_seconds for _, shard in executed]
        straggler = (executed[totals.index(max(totals))][0]
                     if len(executed) > 1 else None)
        sharding = self.sharding
        lines = [
            f"sharding: {sharding['workers']} workers on"
            f" {sharding['attribute']} ({sharding['scheme']}),"
            f" {len(executed)} executed /"
            f" {len(self.shards) - len(executed)} skipped"
        ]
        for position, shard in enumerate(self.shards):
            if shard is None:
                lines.append(f"  shard {position}: skipped (empty partition)")
                continue
            note = ""
            if position == straggler:
                note = (f"   <-- straggler ({straggler_ratio(totals):.2f}x"
                        f" median)")
            lines.append(
                f"  shard {position} pid={shard.pid}: "
                f"{shard.result_count} results"
                f"  build {shard.build_seconds * 1e3:.3f} ms"
                f"  probe {shard.probe_seconds * 1e3:.3f} ms"
                f"  total {shard.total_seconds * 1e3:.3f} ms{note}"
            )
        for depth, level in enumerate(self.levels):
            seconds = [shard.levels[depth].seconds for _, shard in executed
                       if depth < len(shard.levels)]
            spread = shard_distribution(seconds)
            lines.append(
                f"  level {level.label}: min {spread['min'] * 1e3:.3f}"
                f" / med {spread['median'] * 1e3:.3f}"
                f" / max {spread['max'] * 1e3:.3f} ms"
                f"  straggler x{straggler_ratio(seconds):.2f}"
            )
        emitted = [shard.result_count for _, shard in executed]
        if emitted:
            spread = shard_distribution(emitted)
            mean = statistics.fmean(emitted)
            skew = spread["max"] / mean if mean > 0 else 1.0
            lines.append(
                f"  balance: emitted min {spread['min']} / med"
                f" {spread['median']:.0f} / max {spread['max']} per shard"
                f"  (skew x{skew:.2f})"
            )
        return lines


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
    A sharded run's observer holds the workers' profiles
    (``observer.shards``): the levels are theirs summed position by
    position, and the trie levels and tail come from theirs.
    """
    registry = observer.metrics
    sharding = observer.sharding
    executed = [shard for shard in observer.shards if shard is not None]
    if sharding is None:
        levels = _observed_levels(observer.levels)
        trie_levels = dict(observer.trie_levels)
    else:
        levels = _summed_levels([shard.levels for shard in executed])
        trie_levels = {}
        for shard in executed:
            for alias, (built, total) in shard.trie_levels.items():
                seen = trie_levels.get(alias, (0, total))[0]
                trie_levels[alias] = (max(built, seen), total)
        # every shard runs the same plan, so has the same tail
        registry.inc("frontier.tail_levels", max(
            (shard.counters.get("frontier.tail_levels", 0)
             for shard in executed), default=0))

    for level in levels:
        registry.inc("level.candidates", level.candidates)
        registry.inc("level.survivors", level.survivors)
        registry.inc("cursor.descend", level.descends)
        registry.inc("cursor.ascend", level.ascends)
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
        pid=os.getpid(),
        levels=levels,
        optimizer=optimizer,
        counters=snapshot["counters"],
        histograms=snapshot["histograms"],
        build_breakdown={alias: ns * 1e-9
                         for alias, ns in observer.build_ns.items()},
        trie_levels=trie_levels,
        spans=observer.tracer.as_dicts(),
        sharding=sharding and {"workers": sharding.workers,
                               "attribute": sharding.attribute,
                               "scheme": sharding.scheme},
        shards=list(observer.shards),
    )


def _observed_levels(stats) -> list[LevelProfile]:
    """A driver's per-level accumulators as profile levels: exclusive
    time is a level's inclusive time less the next level's."""
    levels = []
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
    return levels


def _summed_levels(per_shard: "list[list[LevelProfile]]",
                   ) -> list[LevelProfile]:
    """Per-shard level trees summed position by position.

    Every shard runs the same plan, so position ``i`` is the same
    attribute in every tree; a shorter tree adds nothing to the deeper
    levels.
    """
    depth = max((len(levels) for levels in per_shard), default=0)
    merged = []
    for position in range(depth):
        slices = [levels[position] for levels in per_shard
                  if position < len(levels)]
        seed_counts: dict[str, int] = {}
        for level in slices:
            for alias, count in level.seed_counts.items():
                seed_counts[alias] = seed_counts.get(alias, 0) + count
        merged.append(LevelProfile(
            label=slices[0].label,
            participants=slices[0].participants,
            candidates=sum(level.candidates for level in slices),
            survivors=sum(level.survivors for level in slices),
            seconds=sum(level.seconds for level in slices),
            cumulative_seconds=sum(level.cumulative_seconds
                                   for level in slices),
            seed_counts=seed_counts,
            descends=sum(level.descends for level in slices),
            ascends=sum(level.ascends for level in slices),
        ))
    return merged


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


def validate_profile(payload: dict) -> dict:
    """Check a :meth:`JoinProfile.as_dict` payload against the schema.

    A sharded profile's ``sharding`` section holds one entry per shard,
    each checked by this same function (``null``: a skipped shard).
    Raises :class:`ProfileSchemaError` on the first mismatch; returns
    the payload unchanged so the call composes
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
    _expect(isinstance(payload.get("pid"), int) and payload["pid"] > 0,
            "pid", "expected a positive int")

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
    if sharding is None:
        return payload
    _expect(isinstance(sharding, dict), "sharding", "expected an object")
    workers = sharding.get("workers")
    _expect(isinstance(workers, int) and workers >= 1, "sharding.workers",
            "expected a positive int")
    for key in ("attribute", "scheme"):
        _expect(isinstance(sharding.get(key), str) and sharding[key],
                f"sharding.{key}", "expected a non-empty string")
    shards = sharding.get("shards")
    _expect(isinstance(shards, list) and len(shards) == workers,
            "sharding.shards", f"expected a list of {workers} entries")
    for position, shard in enumerate(shards):
        if shard is None:
            continue
        try:
            validate_profile(shard)
        except ProfileSchemaError as exc:
            raise ProfileSchemaError(
                f"sharding.shards[{position}].{exc}") from None
    return payload
