"""The three sections every workload runs, through public API only.

* :class:`JoinSection` — ``repro.join`` (cold), ``PreparedJoin.execute``
  from a ``Session`` (warm), and the staged re-run ``bind → plan →
  prepare(cache=None) → execute`` the traced run takes its layer spans from;
* :class:`ServeSection` — a fixed read/write sequence on one ``Session``;
* :class:`IndexSection` — a standalone Sonic index through the §3.1
  operation set.

Each operation's answer is compared with the oracle's; :class:`Tally`
counts attempts and failures.  A pass returns its samples in
reference-speed seconds (see :mod:`measure`).
"""

from __future__ import annotations

import sys
import traceback

import numpy as np

import measure
from repro import Relation, Session, SonicConfig, join, parse_query
from repro.engine import DEFAULT_CACHE_BYTES, bind, plan, prepare
from repro.indexes import make_index
from repro.planner import Hypergraph, agm_bound, connectivity_order

#: stage spans of the staged re-run; together they must cover >= 90 % of it
STAGES = ("engine.bind", "engine.plan", "engine.prepare", "engine.execute",
          "engine.close")

RAISED = object()


def guarded(call, *args, **kwargs):
    """Run one operation; a raise is recorded and becomes ``RAISED``."""
    try:
        return call(*args, **kwargs)
    except Exception:  # the boundary that must keep measuring
        traceback.print_exc()
        return RAISED


class Tally:
    """Operations attempted and operations that raised or answered wrongly."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, answer, expected, what: str) -> None:
        self.attempted += 1
        if answer is RAISED or answer != expected:
            self.failed += 1
            shown = "raised" if answer is RAISED else f"got {answer!r:.80}"
            print(f"FAILED {what}: {shown}, want {expected!r:.80}", file=sys.stderr)


class JoinSection:
    """Cold and warm passes over the workload's query list."""

    def __init__(self, workload, tally: Tally):
        self.queries = workload.queries
        self.tally = tally
        sessions: dict[int, Session] = {}
        self.prepared = []
        for q in self.queries:
            session = sessions.setdefault(id(q.relations), Session(q.relations))
            self.prepared.append(session.prepare(q.query, **q.options))
        self.sessions = list(sessions.values())
        self.caches = [sessions[id(q.relations)].cache for q in self.queries]
        #: atom alias -> relation size per query, for the AGM bound
        self.sizes = [
            {a.alias: len(q.relations.get(a.alias, q.relations.get(a.relation)))
             for a in q.query.atoms} for q in self.queries]

    def close(self) -> None:
        for prepared in self.prepared:
            prepared.close()
        for session in self.sessions:
            session.close()

    def cold_pass(self) -> list:
        """Every query through one-shot ``join()``: bind+plan+build+probe."""
        return [guarded(join, q.query, q.relations, **q.options)
                for q in self.queries]

    def warm_pass(self) -> list:
        """Every query through its prepared join: indexes (or pool) cached."""
        return [guarded(prepared.execute) for prepared in self.prepared]

    def check(self, results: list, what: str) -> None:
        for q, result in zip(self.queries, results):
            count = result if result is RAISED else result.count
            self.tally.check(count, q.expected, f"{what} {q.name}")

    # -- traced run ----------------------------------------------------
    def staged_pass(self, tracer) -> list:
        """The cold pass taken apart, one span per engine stage."""
        return [guarded(self._staged, q, tracer) for q in self.queries]

    @staticmethod
    def _staged(q, tracer):
        with tracer.span("query", query=q.name):
            with tracer.span("engine.bind"):
                bound = bind(q.query, q.relations)
            with tracer.span("engine.plan"):
                join_plan = plan(bound, **q.options)
            with tracer.span("engine.prepare"):
                prepared = prepare(bound, join_plan, cache=None)
            try:
                with tracer.span("engine.execute"):
                    return prepared.execute()
            finally:
                with tracer.span("engine.close"):
                    prepared.close()

    def planner_pass(self, tracer) -> None:
        """The planner's pieces on their own, and an all-hit prepare."""
        for q, sizes, cache in zip(self.queries, self.sizes, self.caches):
            with tracer.span("planner.parse"):
                parse_query(q.text)
            with tracer.span("planner.order"):
                connectivity_order(q.query)
            with tracer.span("planner.agm"):
                agm_bound(Hypergraph.from_query(q.query), sizes)
            bound = bind(q.query, q.relations)
            join_plan = plan(bound, **q.options)
            with tracer.span("engine.warm_prepare"):
                prepared = prepare(bound, join_plan, cache=cache)
            prepared.close()

    def agm_total(self) -> float:
        return sum(agm_bound(Hypergraph.from_query(q.query), sizes)
                   for q, sizes in zip(self.queries, self.sizes))


class ServeSection:
    """The fixed op sequence on a fresh ``Session`` over fresh relations.

    Relations only grow, so every pass starts from new copies: each pass
    does identical work and the samples of a run are comparable.
    """

    def __init__(self, workload, tally: Tally):
        self.workload = workload
        self.tally = tally
        #: the Session's cache budget; the default holds every working set
        self.cache_budget = DEFAULT_CACHE_BYTES
        session, _ = self._fresh(measure.Tracer(enabled=False))
        self.working_set = session.cache_stats().bytes
        session.close()
        if workload.cache_share is not None:
            # pin the cache below the steady-state working set, so the
            # workload evicts; the traced run reports both numbers
            self.cache_budget = int(self.working_set * workload.cache_share)

    def _fresh(self, tracer):
        with tracer.span("storage.relation_build"):
            source = {name: Relation(name, attributes, rows)
                      for name, (attributes, rows)
                      in self.workload.tables.items()}
        session = Session(source, cache_bytes=self.cache_budget)
        for template in self.workload.templates:      # untimed warm-up
            session.execute(template.text, **template.options)
        return session, source

    def run_pass(self, clock, tracer) -> dict:
        """One timed replay; returns per-op samples and cache accounting."""
        ops, templates = self.workload.ops, self.workload.templates
        session, source = self._fresh(tracer)

        def read(op):
            template = templates[op.template]
            with tracer.span("serve.read", template=op.template):
                return session.execute(template.text, **template.options).count

        def write(op):
            with tracer.span("storage.extend", relation=op.target):
                source[op.target].extend(op.rows)

        before = session.cache_stats()
        durations, answers = clock.time_each(
            (lambda op=op: guarded(read if op.target is None else write, op))
            for op in ops)
        after = session.cache_stats()
        session.close()

        reads, stale, writes = [], [], []
        for op, seconds, answer in zip(ops, durations, answers):
            if op.target is not None:
                self.tally.check(answer, None, f"write {op.target}")
                writes.append(seconds)
                continue
            self.tally.check(answer, op.expected, f"read template {op.template}")
            reads.append(seconds)
            if op.stale:
                stale.append(seconds)
        hits = after.hits - before.hits
        misses = after.misses - before.misses
        return {
            "reads": reads, "stale": stale, "writes": writes,
            "ops_per_s": len(durations) / sum(durations),
            "cache_hit_ratio": hits / max(hits + misses, 1),
            "cache_evictions": after.evictions - before.evictions,
            "cache_bytes": after.bytes,
            "rebuilds_per_write": misses / max(len(writes), 1),
        }


class IndexSection:
    """Standalone Sonic: bulk build, then insert / contains / count / lookup."""

    def __init__(self, workload, tally: Tally):
        self.plan = workload.index
        self.tally = tally
        self.columns = [np.array(column, dtype=np.int64)
                        for column in zip(*self.plan.rows)]

    def run_pass(self, clock, tracer) -> dict:
        p = self.plan
        index = make_index("sonic", p.arity, config=SonicConfig.for_tuples(
            len(p.rows) + len(p.inserts)))

        def build():
            with tracer.span("core.sonic_build", rows=len(p.rows)):
                index.build_bulk(self.columns)

        build_s, built = clock.time(guarded, build)
        insert_s, _ = clock.time(guarded, _each, index.insert, p.inserts)
        point_s, found = clock.time(guarded, _each, index.contains, p.points)
        count_s, counted = clock.time(guarded, _each, index.count_prefix, p.counts)
        lookup_s, rows = clock.time(guarded, _drain_each, index.prefix_lookup,
                                    p.lookups)
        check = self.tally.check
        check(built, None, "build_bulk")
        check(len(index), len(p.rows) + len(p.inserts), "size after inserts")
        check(found, p.point_answers, "contains")
        check(counted, p.count_answers, "count_prefix")
        check(rows if rows is RAISED else [sorted(r) for r in rows],
              p.lookup_answers, "prefix_lookup")
        return {
            "build_s": build_s,
            "insert_us": insert_s / len(p.inserts) * 1e6,
            "point_us": point_s / len(p.points) * 1e6,
            "count_us": count_s / len(p.counts) * 1e6,
            "prefix_us": lookup_s / len(p.lookups) * 1e6,
            "bytes_per_tuple": index.memory_usage() / len(index),
            "sonic_bytes": index.memory_usage(),
        }


def _each(method, arguments) -> list:
    return [method(argument) for argument in arguments]


def _drain_each(method, arguments) -> list:
    return [list(method(argument)) for argument in arguments]
