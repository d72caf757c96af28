"""Pipelined binary hash joins — the classical baseline (§1, §5.14).

The paper's baseline is "a sequence of (fully inlined) binary hash-joins
(based on Abseil's hash-set)": a left-deep pipeline where every relation
except the leftmost gets a hash table on its join key, and probe results
flow tuple-at-a-time (no materialization between operators — the paper
explicitly avoids materializing joins "due to their poor cache locality").

The join order comes from :func:`repro.planner.optimizer.greedy_join_order`
unless the caller pins one — which the Fig 1 bench does to demonstrate the
order-sensitivity WCOJ algorithms are immune to.  The intermediate-tuple
counter in the metrics is the quantity that explodes under adversarial
data.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.errors import QueryError
from repro.joins.results import JoinMetrics, JoinResult, Stopwatch, make_sink
from repro.obs.observer import NULL_OBSERVER
from repro.planner.cardinality import Statistics
from repro.planner.optimizer import greedy_join_order
from repro.planner.query import JoinQuery
from repro.storage.relation import Relation


def plan_pipeline(query: JoinQuery, relations: dict[str, Relation],
                  order: Sequence[str]) -> tuple[list[dict], tuple[str, ...]]:
    """Stage descriptors for a pinned atom order (no tables built yet).

    Each descriptor carries the stage's alias, its key/payload attribute
    split under the attributes bound so far, and the corresponding column
    positions in the stage relation's schema — everything a hash-table
    build (or an index-cache key) needs.  Returns ``(stages,
    output_attrs)``; the leading atom contributes no stage.
    """
    bound = list(query.attributes_of(order[0]))
    bound_set = set(bound)
    stages: list[dict] = []
    for alias in order[1:]:
        attrs = query.attributes_of(alias)
        key_attrs = tuple(a for a in attrs if a in bound_set)
        payload_attrs = tuple(a for a in attrs if a not in bound_set)
        relation = relations[alias]
        positions = relation.schema.project_positions(attrs)
        stages.append({
            "alias": alias,
            "key_attrs": key_attrs,
            "payload_attrs": payload_attrs,
            "key_positions": tuple(positions[attrs.index(a)]
                                   for a in key_attrs),
            "payload_positions": tuple(positions[attrs.index(a)]
                                       for a in payload_attrs),
        })
        for attribute in payload_attrs:
            bound.append(attribute)
            bound_set.add(attribute)
    return stages, tuple(bound)


def build_stage_table(rows: Iterable[tuple], key_positions: Sequence[int],
                      payload_positions: Sequence[int],
                      ) -> dict[tuple, list[tuple]]:
    """One stage's hash table: key columns → list of payload projections.

    ``rows`` is a relation or any iterable of its rows.  Standalone so
    the engine's prepare stage can build (and the session cache can
    reuse) a stage table outside any driver instance.
    """
    table: dict[tuple, list[tuple]] = {}
    for row in rows:
        key = tuple(row[p] for p in key_positions)
        table.setdefault(key, []).append(
            tuple(row[p] for p in payload_positions))
    return table


def extend_stage_table(table: dict[tuple, list[tuple]],
                       appended: Iterable[tuple],
                       key_positions: Sequence[int],
                       payload_positions: Sequence[int],
                       ) -> dict[tuple, list[tuple]]:
    """The table a rebuild over ``table``'s rows + ``appended`` would give.

    ``table`` is not touched — a prepared join may still be probing it:
    the result is a shallow copy in which every key the appended rows
    hit maps to a *new* payload list, old payloads first, as a rebuild in
    row order would place them.
    """
    extended = table.copy()
    for key, payloads in build_stage_table(appended, key_positions,
                                           payload_positions).items():
        old = table.get(key)
        extended[key] = old + payloads if old else payloads
    return extended


class BinaryHashJoin:
    """Left-deep pipeline of hash joins over a query.

    ``prebuilt`` (the engine's prepared path) is ``(stages,
    output_attrs)`` where every stage descriptor already carries its
    ``"table"``; the driver then skips the build phase entirely and
    ``metrics.build_seconds`` stays zero — the prepare stage owns the
    build accounting.
    """

    def __init__(self, query: JoinQuery, relations: dict[str, Relation],
                 order: Sequence[str] | None = None,
                 stats: Statistics | None = None, obs=None,
                 prebuilt: "tuple[list[dict], tuple[str, ...]] | None" = None):
        missing = [a.alias for a in query.atoms if a.alias not in relations]
        if missing:
            raise QueryError(f"no relation bound for atoms {missing}")
        self.query = query
        self.relations = relations
        if order is not None:
            order = list(order)
            if sorted(order) != sorted(a.alias for a in query.atoms):
                raise QueryError(f"join order {order} does not cover the query atoms")
        else:
            if stats is None:
                stats = Statistics.collect(relations.values())
            order = greedy_join_order(query, stats)
        self.order = order
        self.metrics = JoinMetrics(algorithm="binary_join", index="hashmap")
        self._plan: list[dict] = []
        self._built = False
        self._output_attrs: tuple[str, ...] = ()
        self.obs = obs if obs is not None else NULL_OBSERVER
        if prebuilt is not None:
            self._plan, self._output_attrs = prebuilt
            self._built = True

    # ------------------------------------------------------------------
    # Build phase: one hash table per non-leading atom
    # ------------------------------------------------------------------
    def build(self) -> None:
        if self._built:
            return
        self._built = True
        watch = Stopwatch()
        obs = self.obs
        stages, self._output_attrs = plan_pipeline(self.query, self.relations,
                                                   self.order)
        self._plan = stages
        for stage in stages:
            if obs.enabled:
                table_t0 = Stopwatch.now_ns()
            stage["table"] = build_stage_table(
                self.relations[stage["alias"]],
                stage["key_positions"], stage["payload_positions"])
            if obs.enabled:
                obs.record_build(stage["alias"],
                                 Stopwatch.now_ns() - table_t0)
        self.metrics.build_seconds += watch.lap()

    # ------------------------------------------------------------------
    # Probe phase: tuple-at-a-time pipeline
    # ------------------------------------------------------------------
    def run(self, materialize: bool = False) -> JoinResult:
        self.build()
        sink = make_sink(materialize)
        watch = Stopwatch()
        leading = self.relations[self.order[0]]
        lead_attrs = self.query.attributes_of(self.order[0])
        binding: dict[str, object] = {}
        obs = self.obs
        if obs.enabled:
            # one profile level per pipeline stage: the leading scan,
            # then each hash probe (label = the stage's atom alias)
            stats = obs.init_levels(self.order, [[a] for a in self.order])
            st0 = stats[0]
            st0.seed_counts[self.order[0]] += 1
            probe_t0 = Stopwatch.now_ns()
            with obs.tracer.span("probe", algorithm="binary_join"):
                for row in leading:
                    for attribute, value in zip(lead_attrs, row):
                        binding[attribute] = value
                    self._probe_profiled(0, binding, sink, stats)
            scanned = len(leading)
            st0.candidates += scanned
            st0.survivors += scanned
            st0.time_ns += Stopwatch.now_ns() - probe_t0
        else:
            for row in leading:
                for attribute, value in zip(lead_attrs, row):
                    binding[attribute] = value
                self._probe(0, binding, sink)
        self.metrics.probe_seconds += watch.lap()
        self.metrics.result_count = sink.count
        return JoinResult(attributes=self._output_attrs, sink=sink,
                          metrics=self.metrics)

    def _probe_profiled(self, stage: int, binding: dict[str, object], sink,
                        stats: list) -> None:
        """The instrumented twin of :meth:`_probe` (stage *i* writes into
        ``stats[i + 1]``; level 0 is the leading scan, accounted by
        :meth:`run`).  ``candidates`` counts probes arriving at the stage,
        ``survivors`` the matching payload expansions flowing on.  Keep
        the twins in sync when touching either."""
        if stage == len(self._plan):
            # mirrors _probe's baselined result-tuple construction
            sink.emit(tuple(binding[a] for a in self._output_attrs))  # repro: noqa[RA502]
            return
        st = stats[stage + 1]
        t0 = Stopwatch.now_ns()
        step = self._plan[stage]
        self.metrics.lookups += 1
        st.candidates += 1
        st.seed_counts[step["alias"]] += 1
        # mirrors _probe's baselined per-probe key construction
        key = tuple(binding[a] for a in step["key_attrs"])  # repro: noqa[RA502]
        matches = step["table"].get(key)
        if not matches:
            st.time_ns += Stopwatch.now_ns() - t0
            return
        payload_attrs = step["payload_attrs"]
        st.survivors += len(matches)
        for payload in matches:
            for attribute, value in zip(payload_attrs, payload):
                binding[attribute] = value
            self.metrics.intermediate_tuples += 1
            self._probe_profiled(stage + 1, binding, sink, stats)
        for attribute in payload_attrs:
            binding.pop(attribute, None)
        st.time_ns += Stopwatch.now_ns() - t0

    def _probe(self, stage: int, binding: dict[str, object], sink) -> None:
        if stage == len(self._plan):
            sink.emit(tuple(binding[a] for a in self._output_attrs))
            return
        step = self._plan[stage]
        self.metrics.lookups += 1
        key = tuple(binding[a] for a in step["key_attrs"])
        matches = step["table"].get(key)
        if not matches:
            return
        payload_attrs = step["payload_attrs"]
        for payload in matches:
            for attribute, value in zip(payload_attrs, payload):
                binding[attribute] = value
            self.metrics.intermediate_tuples += 1
            self._probe(stage + 1, binding, sink)
        for attribute in payload_attrs:
            binding.pop(attribute, None)
