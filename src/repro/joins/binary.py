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

from collections.abc import Sequence

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
    build needs, and what a binary plan's index specs describe.  Returns
    ``(stages, output_attrs)``; the leading atom contributes no stage.
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


class BinaryHashJoin:
    """Left-deep pipeline of hash joins over a query.

    The build phase hashes every non-leading relation on its key; the
    leading atom is then scanned up to the row count read at build
    time, so a run started after an append still joins exactly the rows
    the tables were built from (relations are append-only).
    """

    def __init__(self, query: JoinQuery, relations: dict[str, Relation],
                 order: Sequence[str] | None = None,
                 stats: Statistics | None = None, obs=None):
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
        self._leading_rows = 0
        self.obs = obs if obs is not None else NULL_OBSERVER

    # ------------------------------------------------------------------
    # Build phase: one hash table per non-leading atom
    # ------------------------------------------------------------------
    def build(self) -> None:
        """Hash each stage's relation: key columns → the list of its
        rows' payload projections, every copy of a repeated row kept."""
        if self._built:
            return
        self._built = True
        watch = Stopwatch()
        obs = self.obs
        stages, self._output_attrs = plan_pipeline(self.query, self.relations,
                                                   self.order)
        self._plan = stages
        self._leading_rows = len(self.relations[self.order[0]])
        for stage in stages:
            relation = self.relations[stage["alias"]]
            if obs.enabled:
                table_t0 = Stopwatch.now_ns()
            key_positions = stage["key_positions"]
            payload_positions = stage["payload_positions"]
            table: dict[tuple, list[tuple]] = {}
            for row in relation.rows:
                key = tuple(row[p] for p in key_positions)
                table.setdefault(key, []).append(
                    tuple(row[p] for p in payload_positions))
            stage["table"] = table
            if obs.enabled:
                obs.record_build(stage["alias"], table_t0,
                                 index="hashtable", tuples=len(relation))
        self.metrics.build_seconds += watch.lap()

    # ------------------------------------------------------------------
    # Probe phase: tuple-at-a-time pipeline
    # ------------------------------------------------------------------
    def run(self, materialize: bool = False) -> JoinResult:
        self.build()
        sink = make_sink(materialize)
        watch = Stopwatch()
        leading = self.relations[self.order[0]].rows[:self._leading_rows]
        lead_attrs = self.query.attributes_of(self.order[0])
        binding: dict[str, object] = {}
        obs = self.obs
        # one level per pipeline stage: the leading scan, then each hash
        # probe (label = the stage's atom alias)
        stats = obs.init_levels(self.order, [[a] for a in self.order])
        timed = obs.enabled
        if timed:
            probe_t0 = Stopwatch.now_ns()
        with obs.tracer.span("probe", algorithm="binary_join"):
            for row in leading:
                for attribute, value in zip(lead_attrs, row):
                    binding[attribute] = value
                self._probe(0, binding, sink, stats, timed)
        scan = stats[0]
        scan.candidates = scan.survivors = len(leading)
        scan.seed_counts[scan.label] = 1
        if timed:
            scan.time_ns = Stopwatch.now_ns() - probe_t0
        metrics = self.metrics
        for before, st in zip(stats, stats[1:]):
            # a stage probes its table once per tuple the stage before
            # it let through, as its own seed
            st.candidates = st.seed_counts[st.label] = before.survivors
            metrics.lookups += st.candidates
            metrics.intermediate_tuples += st.survivors
        metrics.probe_seconds += watch.lap()
        metrics.result_count = sink.count
        return JoinResult(attributes=self._output_attrs, sink=sink,
                          metrics=metrics)

    def _probe(self, stage: int, binding: dict[str, object], sink,
               stats: list, timed: bool) -> None:
        """Probe stage ``stage``'s table with the current binding and
        flow every match on.  Stage *i* writes into ``stats[i + 1]``
        (level 0 is the leading scan, accounted by :meth:`run`):
        ``survivors`` counts the matching payload expansions flowing on
        — which are the next stage's ``candidates``."""
        if stage == len(self._plan):
            sink.emit(tuple(binding[a] for a in self._output_attrs))
            return
        if timed:
            t0 = Stopwatch.now_ns()
        step = self._plan[stage]
        key = tuple(binding[a] for a in step["key_attrs"])
        matches = step["table"].get(key)
        if matches:
            stats[stage + 1].survivors += len(matches)
            payload_attrs = step["payload_attrs"]
            for payload in matches:
                for attribute, value in zip(payload_attrs, payload):
                    binding[attribute] = value
                self._probe(stage + 1, binding, sink, stats, timed)
            for attribute in payload_attrs:
                binding.pop(attribute, None)
        if timed:
            stats[stage + 1].time_ns += Stopwatch.now_ns() - t0
