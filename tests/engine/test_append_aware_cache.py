"""The index cache under writes: what a write costs the next read.

Relations are append-only, and a miss after a write rebuilds the
columnar trie it missed on — the one structure a session holds besides a
sharded plan's partitioning — from one consistent read.  These tests
hold that to the one contract that matters — a session read answers
exactly as a cold ``join()`` over the same rows — across every frontier
plan family, and pin the mechanism itself: every miss rebuilds, the
superseded entry leaves the budget, and a prepared join keeps answering
from the structures it was prepared with.  The paper's tuple drivers
are never cached: they rebuild on every cold ``join()``.
"""

from __future__ import annotations

import threading

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import Relation, Session, join
from repro.errors import ConfigurationError
from repro.joins import BinaryHashJoin, resolve_relations
from repro.obs.observer import JoinObserver
from repro.planner import parse_query

TRIANGLE = "E1=E(a,b), E2=E(b,c), E3=E(c,a)"
CORE_EAR = "E1=E(a,b), E2=E(b,c), E3=E(c,a), F(a,d)"

PATH = "E1=E(a,b), E2=E(b,c)"

GENERIC_TUPLE = {"algorithm": "generic", "index": "sonic", "engine": "tuple"}
GENERIC_BATCH = {"algorithm": "generic", "index": "sonic", "engine": "batch"}
BINARY = {"algorithm": "binary"}
#: every plan family a session serves, with the query it reads: the
#: acyclic route (``auto`` over a query the binary pipeline used to
#: take) among them
CONFIGS = [
    (TRIANGLE, {}),
    (TRIANGLE, {"algorithm": "generic", "index": "btree"}),
    (TRIANGLE, GENERIC_BATCH),
    (CORE_EAR, {"algorithm": "auto"}),
    (CORE_EAR, {"algorithm": "unified", "engine": "batch"}),
]
SHARDED = (TRIANGLE, {**GENERIC_BATCH, "parallel": 2})

#: beyond int64: the column's dtype class flips to ``object``, which
#: a batch-engine read joins by dictionary code from then on
BIG = 2 ** 70


def base_tables() -> dict:
    edges = [(a, (a * 3 + k) % 7) for a in range(7) for k in (1, 2, 4)]
    ears = [(a, 100 + a % 3) for a in range(7)]
    return {"E": Relation("E", ("src", "dst"), edges),
            "F": Relation("F", ("src", "tag"), ears)}


# one write: (relation, kind, two small integers that shape its rows)
_writes = st.tuples(
    st.sampled_from(["E", "F"]),
    st.sampled_from(["present", "new_key", "random", "big", "empty",
                     "growth"]),
    st.integers(0, 6), st.integers(0, 6))
_steps = st.lists(st.one_of(_writes, st.just("read")), min_size=1,
                  max_size=8)


def rows_for(relation: Relation, kind: str, x: int, y: int) -> list:
    if kind == "present":       # repeated rows: a bag grows, a set refuses
        return [relation.rows[x % len(relation)],
                relation.rows[y % len(relation)]]
    if kind == "new_key":       # opens first-level keys no old row has
        return [(50 + len(relation), x), (51 + len(relation), y)]
    if kind == "random":
        return [(x, y), (y, x), (x, (x + 1) % 7)]
    if kind == "big":           # flips both columns' dtype class
        return [(x, BIG + y), (BIG + y, x)]
    if kind == "empty":
        return []
    # growth: a write as large as the relation it lands on
    return [(x + i, (y + 2 * i) % 9) for i in range(len(relation))]


def span_names(observer: JoinObserver) -> list:
    return [span["name"] for span in observer.tracer.as_dicts()]


def check_reads(session: Session, tables: dict, configs) -> None:
    for query, options in configs:
        assert session.execute(query, **options).count == \
            join(query, tables, **options).count, (query, options)


def replay(steps, configs) -> Session:
    tables = base_tables()
    session = Session(tables)
    check_reads(session, tables, configs)      # warm: bases to extend
    for step in steps:
        if step == "read":
            check_reads(session, tables, configs)
        else:
            name, kind, x, y = step
            tables[name].extend(rows_for(tables[name], kind, x, y))
    check_reads(session, tables, configs)
    return session


@settings(max_examples=40, deadline=None)
@given(steps=_steps)
# a dtype flip between two extensions of the same base
@example(steps=[("E", "random", 1, 2), "read", ("E", "big", 3, 4), "read",
                ("E", "present", 0, 1)])
# a write that doubles the relation, then a small one
@example(steps=[("E", "growth", 0, 0), "read", ("E", "new_key", 1, 1)])
# two writes behind one read: the delta spans both
@example(steps=[("F", "new_key", 2, 3), ("F", "present", 0, 0),
                ("E", "random", 5, 6)])
@example(steps=[("E", "empty", 0, 0), "read"])
def test_session_reads_equal_cold_joins(steps):
    session = replay(steps, CONFIGS)
    session.close()


@settings(max_examples=4, deadline=None)
@given(steps=_steps)
@example(steps=[("E", "random", 1, 2), "read", ("E", "big", 3, 4)])
def test_sharded_reads_equal_cold_joins(steps):
    # shard columns are superseded like every other structure
    session = replay(steps, [SHARDED])
    session.close()


# ----------------------------------------------------------------------
# the mechanism
# ----------------------------------------------------------------------
class TestExtendOrRebuild:
    def test_a_write_is_served_by_a_rebuild(self):
        tables = base_tables()
        session = Session(tables)
        session.execute(CORE_EAR)
        tables["E"].extend([(0, 6), (6, 0)])
        observer = JoinObserver()
        result = session.execute(CORE_EAR, obs=observer)
        assert result.count == join(CORE_EAR, tables, **BINARY).count
        # E is held as two tries (E1 and E2 share one attribute order,
        # E3 has its own): both missed and both were sorted again from
        # every row; F's trie was not written, and is a hit
        sorts = [span["args"] for span in observer.tracer.as_dicts()
                 if span["name"] == "build_index"
                 and "levels" not in span["args"]]
        assert [s["index"] for s in sorts] == ["columnar", "columnar"]
        assert {s["tuples"] for s in sorts} == {len(tables["E"])}

    def test_stage_tables_rebuild_in_row_order(self):
        # a session holds no stage table: the binary pipeline builds its
        # own on every cold join.  What a session rebuilds after a write
        # is a trie, which answers in the order a cold build does
        tables = base_tables()
        session = Session(tables)
        first = session.prepare(CORE_EAR)
        old_rows = first.execute(materialize=True).rows
        tables["F"].extend([(0, 7), (0, 8), (9, 9)])
        tables["E"].extend([(0, 6)])
        second = session.prepare(CORE_EAR)
        cold = join(CORE_EAR, tables, materialize=True)
        # a bag in row order: same rows in the same sequence as a rebuild
        assert second.execute(materialize=True).rows == cold.rows
        # ... and the bag the binary pipeline answers, built cold
        binary = join(CORE_EAR, tables, algorithm="binary", materialize=True)
        assert sorted(sorted(row.items()) for row in binary.rows_as_dicts()) \
            == sorted(sorted(row.items()) for row in cold.rows_as_dicts())
        # the superseded tries were copied, not written
        assert first.execute(materialize=True).rows == old_rows

    @pytest.mark.parametrize("options", [
        {"algorithm": "hashtrie"}, {"algorithm": "leapfrog"},
        {"algorithm": "recursive"}, GENERIC_TUPLE, {},
        {"algorithm": "generic", "index": "sortedtrie", "engine": "tuple"},
    ], ids=lambda o: "-".join(str(v) for v in o.values()) or "default")
    def test_other_kinds_keep_rebuilding(self, options):
        # the session rebuilds its trie; a tuple driver, which no session
        # holds, rebuilds its index kind on every cold join
        tables = base_tables()
        session = Session(tables)
        session.execute(TRIANGLE)
        if options:
            with pytest.raises(ConfigurationError,
                               match=r'join\(engine="tuple"\)'):
                session.execute(TRIANGLE, **options)
        tables["E"].extend([(0, 6), (6, 0)])
        assert session.execute(TRIANGLE).count == \
            join(TRIANGLE, tables, **options).count

    def test_cold_join_never_extends(self):
        # no cache, nothing to start from: one sort per atom
        tables = base_tables()
        observer = JoinObserver()
        join(TRIANGLE, tables, obs=observer, **GENERIC_BATCH)
        sorts = [span["args"] for span in observer.tracer.as_dicts()
                 if span["name"] == "build_index"
                 and "levels" not in span["args"]]
        assert [s["alias"] for s in sorts] == ["E1", "E2", "E3"]


class TestSupersededEntries:
    def test_dead_versions_leave_the_byte_budget(self):
        tables = base_tables()
        session = Session(tables)
        session.execute(TRIANGLE, **GENERIC_BATCH)
        one_version = session.cache_stats()
        for step in range(5):
            tables["E"].extend([(step, 7)])
            session.execute(TRIANGLE, **GENERIC_BATCH)
        stats = session.cache_stats()
        # one live entry per attribute order, however many versions
        # passed, charged what a session that saw only the last one holds
        assert stats.entries == one_version.entries == 2
        fresh = Session(tables)
        fresh.execute(TRIANGLE, **GENERIC_BATCH)
        assert stats.bytes == fresh.cache_stats().bytes
        assert stats.evictions == 10
        assert session.metrics.get("cache.evict") == 10
        assert stats.stores - stats.evictions == stats.entries

    def test_prepared_join_outlives_its_superseded_base(self):
        # CORE_EAR on the frontier: E is two tries and F one (the
        # triangle: TestBatchRebuilds.test_prepared_join_answers_from_its_
        # pinned_trie)
        tables = base_tables()
        session = Session(tables)
        pinned = session.prepare(CORE_EAR)
        before = pinned.execute().count
        held = set(map(id, pinned.structures.values()))
        # closes new triangles through old rows, so a base written in
        # place would show
        tables["E"].extend([(0, 6), (6, 0), (1, 0), (5, 1)])
        fresh = session.prepare(CORE_EAR)
        assert fresh.execute().count == join(CORE_EAR, tables, **BINARY).count
        assert fresh.execute().count != before
        # E's bases are out of the cache, and still answer as they did
        cached = {id(entry.value)
                  for entry in session.cache._entries.values()}
        assert len(held - cached) == 2
        assert pinned.execute().count == before

    @pytest.mark.parametrize("algorithm", ["binary", "unified"])
    def test_prepared_binary_join_pins_its_leading_scan(self, algorithm):
        # the leading atom has no stage table: a built pipeline scans it
        # up to the row count read at its build, or the answer is true of
        # no version.  A session holds no binary pipeline — it refuses
        # the plan, a pinned binary order sending ``unified`` there too —
        # so the pipeline that pins is the driver a cold join() runs
        tables = {"R": Relation("R", ("a", "b"), [(1, 2), (4, 3)]),
                  "S": Relation("S", ("b", "c"), [(2, 5), (3, 6)])}
        query = "R(a,b), S(b,c)"
        options = {"algorithm": algorithm, "binary_order": ["R", "S"]}
        with pytest.raises(ConfigurationError,
                           match=r'join\(engine="tuple"\)'):
            Session(tables).prepare(query, **options)
        parsed = parse_query(query)
        pinned = BinaryHashJoin(parsed, resolve_relations(parsed, tables),
                                order=["R", "S"])
        pinned.build()
        assert join(query, tables, **options).count == 2
        tables["R"].extend([(7, 2), (8, 3)])
        tables["S"].extend([(2, 9)])
        assert pinned.run().count == 2
        assert pinned.run(materialize=True).rows == [(1, 2, 5), (4, 3, 6)]
        assert join(query, tables, **options).count == 6


class TestBatchRebuilds:
    """Under the batch engine a write is served by a rebuild: the
    columnar trie's whole build is one packed sort."""

    def test_a_stale_read_is_one_rebuild_per_attribute_order(self):
        tables = base_tables()
        session = Session(tables)
        session.execute(TRIANGLE, **GENERIC_BATCH)
        warm = session.cache_stats()
        tables["E"].extend([(0, 6), (6, 0)])
        observer = JoinObserver()
        result = session.execute(TRIANGLE, obs=observer, **GENERIC_BATCH)
        assert result.count == join(TRIANGLE, tables, **GENERIC_TUPLE).count
        # E is held under (a,b) — shared by E1 and E2 — and (c,a): two
        # sorts at prepare, then the execution descends into both levels
        # of both tries and builds each of the four once
        builds = [span["args"] for span in observer.tracer.as_dicts()
                  if span["name"] == "build_index"]
        sorts = [b for b in builds if "levels" not in b]
        assert [b["index"] for b in sorts] == ["columnar", "columnar"]
        deepens = [b for b in builds if "levels" in b]
        assert {b["index"] for b in deepens} == {"columnar"}
        assert sum(b["levels"] for b in deepens) == 4
        # the predecessors left the byte budget: two live entries, charged
        # what their arrays hold now that the execution has deepened them
        stats = session.cache_stats()
        assert stats.entries == warm.entries == 2
        assert stats.evictions == warm.evictions + 2
        assert stats.bytes == sum(
            entry.value.memory_usage()
            for entry in session.cache._entries.values())
        assert stats.bytes > warm.bytes       # two more rows' worth

    def test_prepared_join_answers_from_its_pinned_trie(self):
        tables = base_tables()
        session = Session(tables)
        pinned = session.prepare(TRIANGLE, **GENERIC_BATCH)
        before = pinned.execute().count
        held = set(map(id, pinned.structures.values()))
        tables["E"].extend([(0, 6), (6, 0), (1, 0), (5, 1)])
        fresh = session.prepare(TRIANGLE, **GENERIC_BATCH)
        assert fresh.execute().count == join(TRIANGLE, tables).count
        assert fresh.execute().count != before
        cached = {id(entry.value) for entry in session.cache._entries.values()}
        assert not held & cached
        assert pinned.execute().count == before


class TestBytesFollowTheLevels:
    """A columnar trie is cached as its sort buffer and grows a level
    the first time a join descends into it: the entry's byte charge is
    re-read after every deepen, and a deepen can evict."""

    STAR = "F(t,x), A(t,p,q)"

    @staticmethod
    def star_tables() -> dict:
        return {"F": Relation("F", ("t", "x"),
                              [(t, t % 7) for t in range(300)]),
                "A": Relation("A", ("t", "p", "q"),
                              [(t % 40, t, t % 5) for t in range(80)])}

    @staticmethod
    def resident(session: Session) -> int:
        return sum(entry.value.memory_usage()
                   for entry in session.cache._entries.values())

    def test_the_charge_holds_after_an_execution_deepened_an_entry(self):
        tables = self.star_tables()
        session = Session(tables)
        prepared = session.prepare(self.STAR, **GENERIC_BATCH)
        tries = prepared.structures
        shallow = session.cache_stats().bytes
        # prepared, not yet read: one sort per relation, no level
        assert [trie.built_depth for trie in tries.values()] == [0, 0]
        assert shallow == self.resident(session) == 8 * (300 + 80)
        count = prepared.execute().count
        # a count reads level t of both and the row starts under it
        assert (tries["F"].built_depth, tries["A"].built_depth) == (1, 1)
        counted = session.cache_stats().bytes
        assert counted == self.resident(session) > shallow
        rows = prepared.execute(materialize=True).rows
        assert len(rows) == count == join(self.STAR, tables).count
        assert (tries["F"].built_depth, tries["A"].built_depth) == (2, 3)
        assert session.cache_stats().bytes == self.resident(session)
        assert session.cache_stats().bytes != counted
        depths = {entry.built_depth
                  for entry in session.cache._entries.values()}
        assert depths == {2, 3}
        # nothing left to build: a third run moves no byte
        prepared.execute(materialize=True)
        assert session.cache_stats().bytes == self.resident(session)
        assert session.cache_stats().evictions == 0

    def test_prefix_only_join_leaves_deeper_levels_unbuilt(self):
        # H's sources are graph vertices, its destinations are not: the
        # join dies at ``b``, having asked E2 and E3 for one level each
        tables = base_tables()
        tables["H"] = Relation("H", ("src", "dst"),
                               [(i, 1000 + i) for i in range(7)])
        hot = "E1=H(a,b), E2=E(b,c), E3=E(c,a)"
        with Session(tables) as session:
            prepared = session.prepare(hot)
            assert prepared.execute(materialize=True).rows == []
            assert {alias: prepared.structures[alias].built_depth
                    for alias in ("E2", "E3")} == {"E2": 1, "E3": 1}
            assert session.cache_stats().bytes == self.resident(session)

    def test_a_deepen_past_the_budget_evicts_the_coldest_entry(self):
        tables = self.star_tables()
        # room for the two sort buffers and not a level more
        session = Session(tables, cache_bytes=8 * (300 + 80))
        prepared = session.prepare(self.STAR, **GENERIC_BATCH)
        assert session.cache_stats().entries == 2
        assert session.cache_stats().evictions == 0
        coldest = next(iter(session.cache._entries))
        assert prepared.execute().count == join(self.STAR, tables).count
        stats = session.cache_stats()
        assert stats.evictions == 1 and stats.entries == 1
        assert coldest not in session.cache
        assert stats.bytes == self.resident(session) <= session.cache.max_bytes
        assert stats.stores - stats.evictions == stats.entries
        # the evicted trie still answers for the join that holds it, and
        # its later levels are charged to no one
        held = prepared.execute(materialize=True)
        assert len(held.rows) == join(self.STAR, tables).count
        after = session.cache_stats()
        assert after.bytes == self.resident(session)


# ----------------------------------------------------------------------
# key and contents come from one read
# ----------------------------------------------------------------------
class TestSnapshotCoherence:
    # "hashtable": the acyclic query the binary pipeline's stage tables
    # used to hold, now one trie per attribute order like the triangle
    @pytest.mark.parametrize("query,options", [
        (TRIANGLE, GENERIC_BATCH), (PATH, {"algorithm": "auto"}),
    ], ids=["columnar", "hashtable"])
    def test_extend_between_lookup_and_build_is_not_double_applied(
            self, query, options):
        tables = base_tables()
        edges = tables["E"]
        session = Session(tables)
        lookup_done = threading.Event()
        write_done = threading.Event()
        real_get = session.cache.get

        def get_then_wait_for_writer(key):
            found = real_get(key)
            if not lookup_done.is_set():
                # the key above was computed before the write below
                lookup_done.set()
                assert write_done.wait(timeout=30)
            return found

        def writer():
            assert lookup_done.wait(timeout=30)
            edges.extend([(0, 6), (6, 0), (6, 3)])
            write_done.set()

        session.cache.get = get_then_wait_for_writer
        thread = threading.Thread(target=writer, daemon=True)
        thread.start()
        try:
            prepared = session.prepare(query, **options)
        finally:
            session.cache.get = real_get
            thread.join(timeout=30)
        assert not thread.is_alive()

        # every entry is keyed by the version whose rows it holds (the
        # rows of E are distinct, so a trie's length is its row count)
        for key, entry in session.cache._entries.items():
            assert len(entry.value) == len(edges)
            assert entry.fingerprint == edges.fingerprint()
        assert prepared.execute().count == join(query, tables,
                                                **options).count
        # and the next write's rebuild reads every row again
        edges.extend([(3, 5), (1, 0)])
        assert session.execute(query, **options).count == \
            join(query, tables, **options).count

    def test_a_write_inside_the_partition_build_keys_the_rows_it_holds(
            self, monkeypatch):
        from repro.parallel import partition

        tables = base_tables()
        edges = tables["E"]
        rows_at = {edges.version: len(edges)}
        real_build = partition.build_sharded_columns

        def build_after_a_write(*args):
            if len(rows_at) == 1:
                edges.extend([(0, 6), (6, 0), (6, 3)])
                rows_at[edges.version] = len(edges)
            return real_build(*args)

        monkeypatch.setattr(partition, "build_sharded_columns",
                            build_after_a_write)
        with Session(tables) as session:
            with session.prepare(TRIANGLE, parallel=2):
                pass
            # every partitioning is published under the version whose
            # rows it holds: a replicated one holds them in every shard
            held = {}
            for key, entry in session.cache._entries.items():
                columns = entry.value
                held[key] = (columns.lengths[0]
                             if columns.partition_position is None
                             else sum(columns.lengths))
            assert len(held) == 3
            assert held == {key: rows_at[key[0][1]] for key in held}

    def test_a_dtype_flip_inside_the_partition_build_plans_again(
            self, monkeypatch):
        # the workers run the parent's plan as it is: a join column that
        # turned to objects after the plan read it as int64 must send
        # the session back to plan it coded, as a trie build does
        from repro.parallel import partition

        tables = base_tables()
        edges = tables["E"]
        real_build = partition.build_sharded_columns
        wrote = []

        def build_after_a_write(*args):
            if not wrote:
                edges.extend([(BIG, 0), (0, BIG)])
                wrote.append(edges.version)
            return real_build(*args)

        monkeypatch.setattr(partition, "build_sharded_columns",
                            build_after_a_write)
        with Session(tables) as session:
            assert session.execute(TRIANGLE, parallel=2).count == \
                join(TRIANGLE, tables).count
            assert wrote

    def test_relation_snapshot_is_one_consistent_read(self):
        relation = Relation("R", ("a", "b"), [(i, i) for i in range(50)])
        stop = threading.Event()

        def writer():
            step = 0
            while not stop.is_set():
                relation.extend([(step, BIG if step % 7 == 0 else step)])
                step += 1

        thread = threading.Thread(target=writer, daemon=True)
        thread.start()
        try:
            for _ in range(300):
                version, count, columns = relation.snapshot()
                assert {len(column) for column in columns} == {count}
                assert count == 50 + version
                assert list(zip(*(c.tolist() for c in columns))) == \
                    relation.rows[:count]
        finally:
            stop.set()
            thread.join(timeout=30)
        assert not thread.is_alive()
