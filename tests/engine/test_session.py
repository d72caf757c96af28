"""Session / PreparedJoin semantics: equivalence, warm re-execution, spans."""

from __future__ import annotations

import pytest

from repro.engine import Session
from repro.joins import join
from repro.obs.observer import JoinObserver
from repro.storage.catalog import Catalog
from repro.storage.relation import Relation

TRIANGLE = "E1=E(a,b), E2=E(b,c), E3=E(c,a)"

ALGORITHM_CASES = [
    {"algorithm": "generic", "index": "sonic", "engine": "tuple"},
    {"algorithm": "generic", "index": "sonic", "engine": "batch"},
    {"algorithm": "generic", "index": "btree", "engine": "tuple"},
    {"algorithm": "generic", "index": "hashtrie", "engine": "tuple"},
    {"algorithm": "generic", "index": "sortedtrie", "engine": "tuple"},
    {"algorithm": "binary"},
    {"algorithm": "hashtrie"},
    {"algorithm": "hashtrie", "lazy": False},
    {"algorithm": "leapfrog"},
    {"algorithm": "recursive"},
    {"algorithm": "auto"},
]


def case_id(case: dict) -> str:
    return "-".join(f"{k}={v}" for k, v in case.items())


@pytest.fixture
def edges() -> Relation:
    rows = [(i, (i * 7 + 3) % 23) for i in range(23)]
    rows += [(i, (i + 1) % 23) for i in range(23)]
    return Relation("E", ("src", "dst"), sorted(set(rows)))


@pytest.fixture
def tables(edges) -> dict[str, Relation]:
    return {"E1": edges, "E2": edges, "E3": edges}


class TestPreparedEquivalence:
    @pytest.mark.parametrize("case", ALGORITHM_CASES, ids=case_id)
    def test_reexecution_matches_fresh_join(self, tables, case):
        expected = join(TRIANGLE, tables, materialize=True, **case)
        session = Session(tables)
        prepared = session.prepare(TRIANGLE, **case)
        first = prepared.execute(materialize=True)
        second = prepared.execute(materialize=True)
        assert sorted(first.rows) == sorted(expected.rows)
        assert sorted(second.rows) == sorted(expected.rows)
        assert first.attributes == expected.attributes

    @pytest.mark.parametrize("case", ALGORITHM_CASES, ids=case_id)
    def test_build_charged_once(self, tables, case):
        session = Session(tables)
        prepared = session.prepare(TRIANGLE, **case)
        first = prepared.execute()
        second = prepared.execute()
        assert first.metrics.build_seconds == prepared.build_seconds
        assert second.metrics.build_seconds == 0.0
        assert prepared.executions == 2

    def test_second_prepare_skips_every_build(self, tables):
        session = Session(tables)
        session.prepare(TRIANGLE).execute()
        hits_before = session.cache_stats().hits
        prepared = session.prepare(TRIANGLE)
        assert session.cache_stats().hits == hits_before + 3
        assert session.cache_stats().misses == 2  # unchanged: no rebuild
        # a fully-warm prepare costs (almost) nothing and charges
        # (almost) nothing: nothing was built
        assert prepared.execute().count == session.execute(TRIANGLE).count

    def test_cold_join_wrapper_keeps_build_semantics(self, tables):
        # join() is a one-shot cold session: every call rebuilds and
        # charges the build to the result, like the seed (§5.15)
        first = join(TRIANGLE, tables)
        second = join(TRIANGLE, tables)
        assert first.metrics.build_seconds > 0.0
        assert second.metrics.build_seconds > 0.0
        assert first.count == second.count


class TestMutationVisibility:
    def test_session_execute_sees_catalog_mutation(self):
        edges = Relation("E", ("src", "dst"), [(0, 1), (1, 2), (2, 0)])
        catalog = Catalog()
        catalog.add(edges)
        session = Session(catalog)
        assert session.execute(TRIANGLE).count == 3
        edges.extend([(0, 2), (2, 1), (1, 0)])  # close the reverse triangle
        assert session.execute(TRIANGLE).count == 6
        # stale entries stopped matching; fresh ones were rebuilt
        assert session.cache_stats().misses == 4

    def test_prepared_join_pins_its_snapshot(self, tables, edges):
        session = Session(tables)
        prepared = session.prepare(TRIANGLE)
        before = prepared.execute().count
        edges.insert((1000, 1001))
        assert prepared.execute().count == before  # snapshot semantics
        reprepared = session.prepare(TRIANGLE)
        assert reprepared.execute().count == join(TRIANGLE, tables).count

    def test_invalidate_by_name(self):
        edges = Relation("E", ("src", "dst"), [(0, 1), (1, 2), (2, 0)])
        catalog = Catalog()
        catalog.add(edges)
        session = Session(catalog)
        session.execute(TRIANGLE)
        assert session.invalidate("E") == 2
        assert session.cache_stats().entries == 0

    def test_catalog_version_counters(self):
        catalog = Catalog()
        edges = Relation("E", ("src", "dst"), [(0, 1)])
        assert catalog.version_of("E") == 0
        catalog.add(edges)
        assert catalog.version_of("E") == 1
        catalog.replace(Relation("E", ("src", "dst"), [(1, 2)]))
        assert catalog.version_of("E") == 2
        catalog.remove("E")
        assert catalog.version_of("E") == 3


class TestObservability:
    def test_prepare_spans_and_cache_counters(self, tables):
        session = Session(tables)
        obs = JoinObserver()
        session.prepare(TRIANGLE, obs=obs).execute(obs=obs)
        names = {span["name"] for span in obs.tracer.as_dicts()}
        assert {"bind", "plan", "optimize", "prepare", "build_index",
                "probe"} <= names
        assert obs.metrics.get("cache.miss") == 2
        assert obs.metrics.get("cache.hit") == 1

    def test_warm_execution_profile_has_no_build_spans(self, tables):
        session = Session(tables)
        prepared = session.prepare(TRIANGLE)
        prepared.execute()  # consumes the one-time build charge
        obs = JoinObserver()
        result = prepared.execute(obs=obs)
        names = {span["name"] for span in obs.tracer.as_dicts()}
        assert "probe" in names and "build_index" not in names
        assert result.profile is not None
        assert result.metrics.build_seconds == 0.0

    @pytest.mark.parametrize("options", [
        {"algorithm": "generic", "engine": "tuple"},
        {"algorithm": "generic", "engine": "batch"},
        {"algorithm": "binary"},
    ], ids=case_id)
    def test_profiled_session_read_covers_both_halves(self, tables, options):
        """``Session.execute(profile=True)`` used to profile the prepare
        half only: the probe ran under the null observer and
        ``result.profile`` was ``None``."""
        session = Session(tables)
        result = session.execute(TRIANGLE, profile=True, **options)
        profile = result.profile
        assert profile is not None
        names = [span["name"] for span in profile.as_dict()["spans"]]
        assert {"bind", "plan", "prepare", "build_index", "probe"} <= set(names)
        assert names.count("probe") == 1
        # the per-level tree: every level saw work and the last one emitted
        assert len(profile.levels) == 3
        assert all(level.candidates > 0 for level in profile.levels)
        assert profile.levels[-1].survivors == result.count > 0
        assert profile.counters["cache.miss"] >= 2
        if options.get("engine") == "batch":
            assert profile.counters["frontier.blocks"] >= 3
            built = {span["args"]["index"]
                     for span in profile.as_dict()["spans"]
                     if span["name"] == "build_index"}
            assert built == {"columnar"}
        # an explicit observer is honoured the same way, warm
        observer = JoinObserver()
        again = session.execute(TRIANGLE, obs=observer, **options)
        assert again.profile is not None
        warm = {span["name"] for span in observer.tracer.as_dicts()}
        assert {"prepare", "probe"} <= warm and "build_index" not in warm
        assert observer.metrics.get("cache.hit") >= 2

    def test_session_metrics_registry_is_shared(self, tables):
        session = Session(tables)
        session.prepare(TRIANGLE)
        session.prepare(TRIANGLE)
        assert session.metrics.get("cache.store") == 2
        assert session.metrics.get("cache.hit") >= 3


class TestSessionLifecycle:
    def test_context_manager_clears_cache(self, tables):
        with Session(tables) as session:
            session.execute(TRIANGLE)
            assert session.cache_stats().entries == 2
        assert session.cache_stats().entries == 0
        # still usable, just cold
        assert session.execute(TRIANGLE).count > 0

    def test_mapping_and_catalog_sources_agree(self, edges, tables):
        catalog = Catalog()
        catalog.add(edges)
        assert (Session(catalog).execute(TRIANGLE).count
                == Session(tables).execute(TRIANGLE).count)

    def test_disabled_cache_session_still_correct(self, tables):
        session = Session(tables, cache_bytes=0)
        first = session.execute(TRIANGLE)
        second = session.execute(TRIANGLE)
        assert first.count == second.count
        assert session.cache_stats().entries == 0


class TestWarmEngineResolution:
    """The serving path must run the driver the planner resolves.

    Regression guard for the bench warm-path artifact: a warm
    (session-prepared) re-execution pinned to ``engine="tuple"`` looked
    slower than a cold batch run (warm_speedup 0.883 on the mid-size
    triangle) even though no engine code had regressed.  ``auto`` must
    resolve once at plan time and every re-execution must run that same
    driver.
    """

    def test_warm_reexecution_keeps_resolved_driver(self, tables):
        with Session(tables) as session:
            prepared = session.prepare(TRIANGLE, engine="auto")
            assert prepared.plan.engine == "batch"  # every column is int64
            cold = prepared.execute()
            warm = prepared.execute()
        assert cold.metrics.algorithm == "generic_join_batch"
        assert warm.metrics.algorithm == cold.metrics.algorithm

    def test_auto_fallback_driver_is_stable_warm(self):
        names = Relation("N", ("src", "dst"),
                         [("a", "b"), ("b", "c"), ("c", "a")])
        with Session({"E1": names, "E2": names, "E3": names}) as session:
            prepared = session.prepare(TRIANGLE, engine="auto")
            assert prepared.plan.engine == "tuple"  # str columns: no trie
            cold = prepared.execute()
            warm = prepared.execute()
        assert cold.metrics.algorithm == "generic_join"
        assert warm.metrics.algorithm == cold.metrics.algorithm


class TestDuplicateFreeRoute:
    """``auto`` / ``unified`` put an acyclic query on the batch engine
    only while every relation is duplicate-free; the verdict follows
    the relation's version."""

    STAR = "F(t,x), A(t,p), B(t,k)"

    @staticmethod
    def star_tables():
        return {
            "F": Relation("F", ("t", "x"), [(i, i) for i in range(30)]),
            "A": Relation("A", ("t", "p"), [(i % 30, i) for i in range(60)]),
            "B": Relation("B", ("t", "k"), [(i % 10, i) for i in range(40)]),
        }

    @pytest.mark.parametrize("algorithm", ["auto", "unified"])
    def test_a_duplicate_row_flips_the_very_next_read(self, algorithm):
        tables = self.star_tables()
        options = {"algorithm": algorithm, "engine": "auto",
                   "materialize": True}
        with Session(tables) as session:
            first = session.execute(self.STAR, **options)
            assert first.metrics.algorithm in ("generic_join_batch", "unified")
            assert first.metrics.index == "columnar"
            # a fresh row keeps the route (one recheck per version) ...
            tables["A"].extend([(0, 1000)])
            assert tables["A"].duplicate_free()
            second = session.execute(self.STAR, **options)
            assert second.metrics.index == "columnar"
            assert second.count == first.count + 4
            # ... a repeated one sends the next read back to binary, and
            # the bag answer counts it: F(0) x {A(0,1000) twice} x 4 B rows
            tables["A"].extend([(0, 1000)])
            assert not tables["A"].duplicate_free()
            third = session.execute(self.STAR, **options)
            assert third.metrics.index == "hashmap"
            assert third.count == second.count + 4
            reference = join(self.STAR, tables, algorithm="binary",
                             materialize=True)
            assert sorted(third.rows) == sorted(reference.rows)
            assert "duplicate rows" in session.prepare(
                self.STAR, algorithm=algorithm, engine="auto").explain()
            # duplicates never go away: later distinct rows change nothing
            tables["A"].extend([(1, 1001)])
            assert not tables["A"].duplicate_free()

    def test_verdict_is_shared_by_renamed_views(self):
        stored = Relation("A", ("t", "p"), [(1, 2), (3, 4)])
        view = stored.renamed(("a", "b"))
        assert view.duplicate_free()
        stored.extend([(1, 2)])
        assert not view.duplicate_free() and not stored.duplicate_free()

    def test_readers_never_see_another_versions_verdict(self):
        """A writer appends distinct rows and, last, a repeated one;
        readers racing it must answer ``True`` only for a version before
        that one and ``False`` only from it on.  A verdict computed
        before an ``extend`` and stored after it, unlocked, would leave
        ``True`` standing over the duplicate for good."""
        import sys
        import threading

        spoiled_at = 12       # the version whose rows repeat one
        wrong: list = []

        def write(relation, done):
            for version in range(1, spoiled_at):
                relation.extend([(version, -version)])
            relation.extend([(0, 0)])
            done.set()

        def read(relation, done):
            while True:
                finished = done.is_set()
                before = relation.version
                verdict = relation.duplicate_free()
                after = relation.version
                if verdict and before >= spoiled_at:
                    wrong.append(("stale True", before, after))
                if not verdict and after < spoiled_at:
                    wrong.append(("early False", before, after))
                if finished:
                    return

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(25):
                relation = Relation("R", ("a", "b"),
                                    [(i, i) for i in range(3000)])
                done = threading.Event()
                threads = [threading.Thread(target=read,
                                            args=(relation, done))
                           for _ in range(4)]
                threads.append(threading.Thread(target=write,
                                                args=(relation, done)))
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                assert relation.version == spoiled_at
                assert not relation.duplicate_free()
        finally:
            sys.setswitchinterval(interval)
        assert wrong == []
