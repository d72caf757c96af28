"""Multithreaded stress over one shared Session (the RA7xx runtime witness).

The static analysis (``repro.analysis.concurrency``) proves what it can
see; this harness exercises what it cannot: many threads driving one
Session through every way of asking for its frontier plan over aliased
relations, with forced evictions and concurrent relation mutation.  Every result must equal the
single-threaded ground truth, and the cache counters must stay coherent:

* ``stores − evictions == entries`` — put_if_absent is the only publish
  path, so the identity survives any interleaving;
* ``store + race == miss`` — every miss builds and then either publishes
  or adopts the winner's structure;
* ``hits + misses == executions × lookups-per-execution`` — the prepare
  stage performs a deterministic number of cache lookups per query shape
  regardless of interleaving.
"""

from __future__ import annotations

import sys
import threading
from collections import Counter
from itertools import product

import pytest

from repro.engine import Session
from repro.indexes import columnar
from repro.indexes.columnar import ColumnarTrie
from repro.joins import join
from repro.planner.query import parse_query
from repro.storage.catalog import Catalog
from repro.storage.relation import Relation

TRIANGLE = "E1=E(a,b), E2=E(b,c), E3=E(c,a)"
PATH = "R1=E(a,b), R2=E(b,c)"

#: (query, kwargs) pairs mixed across the worker pool — every way of
#: asking for the frontier plan a session serves (algorithm, index,
#: engine, order and seed rule), aliased relations throughout
CASES = [
    (TRIANGLE, {"algorithm": "generic", "index": "sonic", "engine": "batch"}),
    (TRIANGLE, {"algorithm": "generic", "index": "btree"}),
    (TRIANGLE, {"algorithm": "auto"}),
    (TRIANGLE, {"algorithm": "unified", "engine": "batch"}),
    (TRIANGLE, {"algorithm": "generic", "order": ("b", "c", "a")}),
    (TRIANGLE, {"algorithm": "generic", "dynamic_seed": False}),
    (PATH, {"algorithm": "auto"}),
    (PATH, {"algorithm": "generic", "index": "sortedtrie",
            "engine": "batch"}),
]

THREADS = 8
ITERATIONS = 6
JOIN_TIMEOUT = 120.0


def make_edges() -> Relation:
    rows = [(i, (i * 7 + 3) % 23) for i in range(23)]
    rows += [(i, (i + 1) % 23) for i in range(23)]
    return Relation("E", ("src", "dst"), sorted(set(rows)))


@pytest.fixture(scope="module")
def ground_truth():
    """Single-threaded expected rows per case, via the cold join() path."""
    tables = {"E": make_edges()}
    expected = {}
    for i, (query, kwargs) in enumerate(CASES):
        result = join(query, tables, materialize=True, **kwargs)
        expected[i] = sorted(result.rows)
    return expected


def lookups_per_execution() -> dict[int, int]:
    """Cache lookups (hits+misses) one execution of each case performs."""
    per_case = {}
    for i, (query, kwargs) in enumerate(CASES):
        session = Session({"E": make_edges()})
        session.execute(query, **kwargs)
        stats = session.cache_stats()
        per_case[i] = stats.hits + stats.misses
    return per_case


def run_threads(worker, count=THREADS):
    """Start, join (with timeout), and surface worker exceptions."""
    barrier = threading.Barrier(count)
    errors: list = []

    def wrapped(tid):
        try:
            barrier.wait(timeout=JOIN_TIMEOUT)
            worker(tid)
        except Exception as exc:  # surfaced below, never swallowed
            errors.append((tid, repr(exc)))

    threads = [threading.Thread(target=wrapped, args=(tid,), daemon=True)
               for tid in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=JOIN_TIMEOUT)
    hung = [t.name for t in threads if t.is_alive()]
    assert not hung, f"threads still alive after {JOIN_TIMEOUT}s: {hung}"
    assert errors == []


def assert_counters_coherent(session: Session,
                             expected_lookups: "int | None" = None):
    stats = session.cache_stats()
    assert stats.stores - stats.evictions == stats.entries, stats
    store = session.metrics.get("cache.store")
    race = session.metrics.get("cache.race")
    assert store == stats.stores
    assert store + race == stats.misses, (store, race, stats)
    if expected_lookups is not None:
        assert stats.hits + stats.misses == expected_lookups, stats


class TestSharedSessionStress:
    def test_mixed_algorithms_shared_cache(self, ground_truth):
        session = Session({"E": make_edges()})
        per_case = lookups_per_execution()
        schedule: list[list[int]] = [
            [(tid + step * 3) % len(CASES) for step in range(ITERATIONS)]
            for tid in range(THREADS)
        ]

        def worker(tid):
            for case in schedule[tid]:
                query, kwargs = CASES[case]
                result = session.execute(query, materialize=True, **kwargs)
                assert sorted(result.rows) == ground_truth[case], \
                    (tid, case, kwargs)

        run_threads(worker)
        total_lookups = sum(per_case[case]
                            for row in schedule for case in row)
        assert_counters_coherent(session, total_lookups)

    def test_forced_evictions_tiny_budget(self, ground_truth):
        # a budget of 2 KiB holds one of the two tries once its levels
        # are built, so the pool constantly evicts and rebuilds while
        # racing on keys
        session = Session({"E": make_edges()}, cache_bytes=2048)

        def worker(tid):
            for step in range(ITERATIONS):
                case = (tid * 5 + step) % len(CASES)
                query, kwargs = CASES[case]
                result = session.execute(query, materialize=True, **kwargs)
                assert sorted(result.rows) == ground_truth[case], \
                    (tid, case, kwargs)

        run_threads(worker)
        stats = session.cache_stats()
        assert stats.evictions > 0, "tiny budget never evicted"
        assert_counters_coherent(session)

    def test_prepared_joins_shared_across_threads(self, ground_truth):
        # one PreparedJoin per case, prepared once, executed by everyone:
        # execution reads the built tries, and only appends their levels
        session = Session({"E": make_edges()})
        prepared = [session.prepare(query, **kwargs)
                    for query, kwargs in CASES]

        def worker(tid):
            for step in range(ITERATIONS):
                case = (tid + step) % len(CASES)
                result = prepared[case].execute(materialize=True)
                assert sorted(result.rows) == ground_truth[case], \
                    (tid, case)

        run_threads(worker)
        assert_counters_coherent(session)


class TestAppendOnlyLevels:
    """One session-cached columnar trie per relation, deepened by
    whichever thread descends first and read unlocked by the rest."""

    STAR = "F(t,x), A(t,p,q), B(t,r)"

    @staticmethod
    def star_tables() -> dict:
        return {"F": Relation("F", ("t", "x"),
                              [(t, t % 7) for t in range(120)]),
                "A": Relation("A", ("t", "p", "q"),
                              [(t % 90, t, t % 5) for t in range(400)]),
                "B": Relation("B", ("t", "r"),
                              [(t % 60, t) for t in range(200)])}

    def test_counting_and_materialising_threads_share_one_build(
            self, monkeypatch):
        tables = self.star_tables()
        options = {"algorithm": "generic", "engine": "batch"}
        truth = join(self.STAR, tables, materialize=True, **options).rows
        built = Counter()
        build_level = ColumnarTrie._build_level

        def counting_build(trie, depth):
            built[round_, id(trie), depth] += 1
            build_level(trie, depth)

        monkeypatch.setattr(ColumnarTrie, "_build_level", counting_build)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for round_ in range(5):
                session = Session(tables)
                prepared = session.prepare(self.STAR, **options)
                tries = list(prepared.structures.values())
                seen: dict[int, list] = {}

                def arrays(trie):
                    depth = trie.built_depth
                    return [[id(array) for array in level[:depth]]
                            for level in (trie.values, trie.indptr,
                                          trie.keys, trie.starts)]

                def worker(tid):
                    if tid % 2:
                        assert prepared.execute(
                            materialize=True).rows == truth
                    else:
                        assert prepared.execute().count == len(truth)
                    seen[tid] = [arrays(trie) for trie in tries]

                run_threads(worker)
                assert [trie.built_depth for trie in tries] == [2, 3, 2]
                # every level array a thread read is the one that stayed
                final = [arrays(trie) for trie in tries]
                for tid, snapshot in seen.items():
                    for mine, kept in zip(snapshot, final):
                        for level, whole in zip(mine, kept):
                            assert level == whole[:len(level)], tid
                stats = session.cache_stats()
                assert stats.bytes == sum(t.memory_usage() for t in tries)
                assert_counters_coherent(session)
        finally:
            sys.setswitchinterval(interval)
        # 5 rounds x (2 + 3 + 2) levels, each built exactly once
        assert len(built) == 35 and set(built.values()) == {1}

    def test_warm_triangles_agree_while_probe_aids_land(self):
        """4 threads warm-execute one prepared triangle whose levels are
        built and whose aids are not: the first probes decide them
        mid-run, each once, and every count is the single-thread one."""
        edges = sorted({(i % 400, (i * 37 + i // 400) % 400)
                        for i in range(4000)})
        tables = {"E": Relation("E", ("src", "dst"), edges)}
        options = {"algorithm": "generic", "engine": "batch"}
        truth = join(TRIANGLE, tables, **options).count

        def undecided(prepared) -> list:
            return [[aid is None for aid in trie._aids]
                    for trie in prepared.structures.values()]

        alone = Session(tables).prepare(TRIANGLE, **options)
        for _ in range(12):
            alone.execute()
        built: list = []
        landed = 0

        def listening(hook):
            def on_deepen(trie):
                built.append(trie)
                hook(trie)
            return on_deepen

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(3):
                session = Session(tables)
                prepared = session.prepare(TRIANGLE, **options)
                tries = {id(t): t for t in prepared.structures.values()}
                for trie in tries.values():
                    trie.at_depth(trie.arity)
                    # from here on the cache hook hears of aids only
                    trie.on_deepen = listening(trie.on_deepen)
                counts: list = []

                def worker(tid):
                    for _ in range(3):
                        counts.append(prepared.execute().count)

                run_threads(worker, count=4)
                assert counts == [truth] * 12
                # the levels a single thread would have given an aid
                assert undecided(prepared) == undecided(alone)
                landed += sum(bool(aid) for trie in tries.values()
                              for aid in trie._aids)
                stats = session.cache_stats()
                assert stats.bytes == sum(
                    trie.memory_usage() for trie in tries.values())
        finally:
            sys.setswitchinterval(interval)
        # every aid of every round's tries built once
        assert landed and len(built) == landed


class TestConcurrentInvalidation:
    def test_mutation_and_invalidation_under_load(self, ground_truth):
        # the mutator inserts disconnected edges (no new triangles, so
        # ground truth is stable) and eagerly invalidates: every worker
        # execution sees either the old or the new fingerprint, never a
        # torn structure
        edges = make_edges()
        catalog = Catalog()
        catalog.add(edges)
        session = Session(catalog)
        triangle_cases = [i for i, (query, _) in enumerate(CASES)
                          if query == TRIANGLE]
        stop = threading.Event()

        def mutate():
            # bounded: every insert invalidates all cached structures, so
            # an unthrottled mutator would starve the workers into
            # rebuilding over an ever-growing relation forever
            for step in range(60):
                if stop.is_set():
                    return
                edges.insert((10_000 + step, 20_000 + step))
                if step % 4 == 3:
                    session.invalidate("E")
                stop.wait(0.01)

        def worker(tid):
            for step in range(ITERATIONS):
                case = triangle_cases[(tid + step) % len(triangle_cases)]
                query, kwargs = CASES[case]
                result = session.execute(query, materialize=True,
                                         **kwargs)
                assert sorted(result.rows) == ground_truth[case], \
                    (tid, case, kwargs)

        mutator = threading.Thread(target=mutate, daemon=True)
        mutator.start()
        try:
            run_threads(worker)
        finally:
            stop.set()
            mutator.join(timeout=JOIN_TIMEOUT)
        assert not mutator.is_alive()
        assert_counters_coherent(session)

    def test_inserts_rebuild_under_load(self, ground_truth):
        # no eager invalidation: every worker inserts a disconnected edge
        # and reads right after, so misses find an older version in the
        # cache while other threads still probe it, and are served by a
        # rebuild that supersedes it
        edges = make_edges()
        session = Session({"E": edges})
        triangle_cases = [i for i, (query, _) in enumerate(CASES)
                          if query == TRIANGLE]

        def worker(tid):
            for step in range(ITERATIONS):
                edges.insert((10_000 + tid * ITERATIONS + step,
                              20_000 + tid * ITERATIONS + step))
                case = triangle_cases[(tid + step) % len(triangle_cases)]
                query, kwargs = CASES[case]
                result = session.execute(query, materialize=True,
                                         **kwargs)
                assert sorted(result.rows) == ground_truth[case], \
                    (tid, case, kwargs)

        run_threads(worker)
        assert_counters_coherent(session)
        # a join prepared now keeps its structures through the next write,
        # which republishes every spec and drops all the older versions
        pinned = [session.prepare(CASES[case][0], **CASES[case][1])
                  for case in triangle_cases]
        edges.insert((1, 0))   # closes a triangle through old rows
        for case in triangle_cases:
            session.execute(CASES[case][0], **CASES[case][1])
        # every triangle case holds E under the same two attribute orders
        keys = list(session.cache._entries)
        assert len({key[1:] for key in keys}) == len(keys)
        assert sum(key[0] == edges.fingerprint() for key in keys) == 2
        assert_counters_coherent(session)
        for case, prepared in zip(triangle_cases, pinned):
            assert sorted(prepared.execute(materialize=True).rows) \
                == ground_truth[case], case

    def test_inserts_merge_under_load(self, monkeypatch):
        # as above, but every insert lies inside E's value ranges: each
        # miss merges the written rows into the older version while other
        # threads still probe it, and counting PATH reads leave levels for
        # materialising ones to build on the predecessor mid-merge.  The
        # inserted edges run from one idle id block into another, closing
        # no triangle and extending no path
        edges = Relation("E", ("src", "dst"),
                         make_edges().rows + [(0, 999), (999, 0)])
        tables = {"E": Relation("E", ("src", "dst"), list(edges.rows))}
        truth = [sorted(join(query, tables, materialize=True, **kwargs).rows)
                 for query, kwargs in CASES]
        session = Session({"E": edges})
        merges = Counter()
        merge = ColumnarTrie._merge
        # E is far below the size a merge pays at: merge into it anyway
        monkeypatch.setattr(columnar, "_MERGED_ROWS", 0)

        def counting_merge(trie, base, delta):
            merges[len(delta[0])] += 1
            merge(trie, base, delta)

        monkeypatch.setattr(ColumnarTrie, "_merge", counting_merge)

        def worker(tid):
            for step in range(ITERATIONS):
                edges.insert((500 + tid * ITERATIONS + step,
                              600 + tid * ITERATIONS + step))
                case = (tid + step) % len(CASES)
                query, kwargs = CASES[case]
                materialize = bool((tid + step) % 2)
                result = session.execute(query, materialize=materialize,
                                         **kwargs)
                if materialize:
                    assert sorted(result.rows) == truth[case], (tid, case)
                else:
                    assert result.count == len(truth[case]), (tid, case)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            run_threads(worker)
        finally:
            sys.setswitchinterval(interval)
        assert sum(merges.values()) > 0, merges
        assert_counters_coherent(session)
        # quiet again: every cached trie holds every row, and answers
        for (query, kwargs), rows in zip(CASES, truth):
            assert sorted(session.execute(query, materialize=True,
                                          **kwargs).rows) == rows
        assert {entry.value.tuples
                for entry in session.cache._entries.values()} == \
            {len(edges)}
        assert_counters_coherent(session)

    def test_concurrent_extend_through_aliased_views(self):
        # extends race through renamed views sharing one storage; the
        # version counter must count every mutation exactly once
        edges = make_edges()
        views = [edges.renamed(f"V{i}") for i in range(THREADS)]
        before = edges.fingerprint()[1]
        per_thread = 25

        def worker(tid):
            view = views[tid]
            for step in range(per_thread):
                view.extend([(50_000 + tid * per_thread + step, 1)])

        run_threads(worker)
        assert edges.fingerprint()[1] == before + THREADS * per_thread
        assert len(edges.rows) == len(make_edges().rows) \
            + THREADS * per_thread


class TestPlanCacheUnderWrites:
    """Readers share one session's cached plans while a writer grows
    ``E`` and turns the join column of the satellite ``S`` to strings."""

    QUERIES = [
        ("E1=E(a,b), E2=E(b,c), E3=E(c,a), S(a,s)", {}),
        ("E(a,b), S(a,s)", {}),
        ("E(a,b), S(a,s)", {"algorithm": "auto"}),
    ]
    WRITES = 16
    FLIP_AT = 7
    READS = 24

    @staticmethod
    def bag(query: str, tables: dict) -> int:
        """The brute-force bag count, one atom's rows at a time."""
        bindings = [{}]
        for atom in parse_query(query).atoms:
            bindings = [
                {**binding, **dict(zip(atom.attributes, row))}
                for binding in bindings for row in tables[atom.relation]
                if all(binding.get(attribute, value) == value
                       for attribute, value in zip(atom.attributes, row))]
        return len(bindings)

    def test_every_answer_is_of_some_version(self):
        edges = [(i, (i * 5 + 2) % 12) for i in range(12)]
        edges += [(i, (i + 1) % 12) for i in range(12)]
        edges = sorted(set(edges))
        satellite = [(i % 12, i) for i in range(30)]
        # a write adds an edge out of a satellite key into a fresh node:
        # the stars grow, the triangle count does not, so a read that
        # sees two versions of E through two aliases is still one answer
        writes = [[(step % 12, 100 + step)] for step in range(self.WRITES)]
        flip = [("x", 99)]
        e_versions = [edges + sum(writes[:i], [])
                      for i in range(self.WRITES + 1)]
        s_versions = [satellite, satellite + flip]
        allowed = [{self.bag(query, {"E": e, "S": s})
                    for e, s in product(e_versions, s_versions)}
                   for query, _ in self.QUERIES]
        E = Relation("E", ("src", "dst"), edges)
        S = Relation("S", ("k", "v"), satellite)
        session = Session({"E": E, "S": S})
        for query, options in self.QUERIES:
            session.execute(query, **options)
        stop = threading.Event()

        def write():
            for step, rows in enumerate(writes):
                if stop.is_set():
                    return
                E.extend(rows)
                if step == self.FLIP_AT:
                    S.extend(flip)
                stop.wait(0.002)

        answers: list = []

        def worker(tid):
            for step in range(self.READS):
                case = (tid + step) % len(self.QUERIES)
                query, options = self.QUERIES[case]
                answers.append(
                    (case, session.execute(query, **options).count))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        writer = threading.Thread(target=write, daemon=True)
        writer.start()
        try:
            run_threads(worker)
        finally:
            # the writer is bounded: it lands every write, the flip
            # included, however quickly the readers are done
            writer.join(timeout=JOIN_TIMEOUT)
            stop.set()
            sys.setswitchinterval(interval)
        assert not writer.is_alive()
        wrong = [(case, count) for case, count in answers
                 if count not in allowed[case]]
        assert wrong == []
        assert len(answers) == THREADS * self.READS
        # quiet again: each cached plan answers the final version
        final = {"E": E.rows, "S": S.rows}
        for query, options in self.QUERIES:
            assert session.execute(query, **options).count \
                == self.bag(query, final)
        assert S.dtype_classes()[0] == "object"
        assert session.metrics.get("plan.hit") > 0
        # a read whose plan went stale between its check and a build (the
        # flip) misses, finds the column uncoded, and plans again: that
        # miss neither stores nor races
        stats = session.cache_stats()
        assert stats.stores - stats.evictions == stats.entries, stats
        store = session.metrics.get("cache.store")
        assert store == stats.stores
        assert store + session.metrics.get("cache.race") <= stats.misses
