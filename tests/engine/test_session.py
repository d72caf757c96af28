"""Session / PreparedJoin semantics: equivalence, warm re-execution, spans.

A session serves frontier plans only.  The cases of the paper's tuple
drivers are kept beside the frontier ones: for them the session must
refuse, and the behaviour a case names is held on the cold ``join()``
that runs them instead.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.engine import Session
from repro.errors import ConfigurationError
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


def served(case: dict) -> bool:
    """Is ``case`` a frontier configuration, one a session serves?"""
    return (case["algorithm"] in ("generic", "auto")
            and case.get("engine") != "tuple")


def assert_refused(session: Session, case: dict) -> None:
    """A tuple case is refused by the session, which stores nothing."""
    with pytest.raises(ConfigurationError, match=r'join\(engine="tuple"\)'):
        session.prepare(TRIANGLE, **case)
    assert session.cache_stats().entries == 0


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
        if not served(case):
            assert_refused(session, case)
            # a tuple driver re-executes as a fresh cold join, and agrees
            # with what the session serves
            again = join(TRIANGLE, tables, materialize=True, **case)
            assert again.rows == expected.rows
            case = {}
        prepared = session.prepare(TRIANGLE, **case)
        first = prepared.execute(materialize=True)
        second = prepared.execute(materialize=True)
        assert sorted(first.rows) == sorted(expected.rows)
        assert sorted(second.rows) == sorted(expected.rows)
        assert first.attributes == expected.attributes

    @pytest.mark.parametrize("case", ALGORITHM_CASES, ids=case_id)
    def test_build_charged_once(self, tables, case):
        session = Session(tables)
        if not served(case):
            assert_refused(session, case)
            # cold, the build is charged to every run (§5.15)
            for _ in range(2):
                assert join(TRIANGLE, tables, **case).metrics \
                    .build_seconds > 0.0
            return
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
        ``result.profile`` was ``None``.  A tuple driver's profile is a
        cold ``join()``'s, which holds both halves the same way."""
        session = Session(tables)
        if served(options):
            result = session.execute(TRIANGLE, profile=True, **options)
        else:
            assert_refused(session, options)
            result = join(TRIANGLE, tables, profile=True, **options)
        profile = result.profile
        assert profile is not None
        names = [span["name"] for span in profile.as_dict()["spans"]]
        assert {"bind", "plan", "prepare", "build_index", "probe"} <= set(names)
        assert names.count("probe") == 1
        # the per-level tree: every level saw work and the last one emitted
        assert len(profile.levels) == 3
        assert all(level.candidates > 0 for level in profile.levels)
        assert profile.levels[-1].survivors == result.count > 0
        if not served(options):
            return
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
            assert prepared.plan.engine == "batch"  # str columns: coded
            cold = prepared.execute()
            warm = prepared.execute()
        assert cold.metrics.algorithm == "generic_join_batch"
        assert warm.metrics.algorithm == cold.metrics.algorithm
        assert warm.count == cold.count == 3


class TestBagRoute:
    """``auto`` / ``unified`` put an acyclic query on the batch engine
    whatever its data, and a read counts every stored copy of a row."""

    STAR = "F(t,x), A(t,p), B(t,k)"

    @staticmethod
    def star_tables():
        return {
            "F": Relation("F", ("t", "x"), [(i, i) for i in range(30)]),
            "A": Relation("A", ("t", "p"), [(i % 30, i) for i in range(60)]),
            "B": Relation("B", ("t", "k"), [(i % 10, i) for i in range(40)]),
        }

    @staticmethod
    def bag(result) -> Counter:
        return Counter(frozenset(zip(result.attributes, row))
                       for row in result.rows)

    @pytest.mark.parametrize("algorithm", ["auto", "unified"])
    def test_a_duplicate_row_keeps_the_frontier(self, algorithm):
        tables = self.star_tables()
        options = {"algorithm": algorithm, "engine": "auto",
                   "materialize": True}
        with Session(tables) as session:
            first = session.execute(self.STAR, **options)
            assert first.metrics.index == "columnar"
            tables["A"].extend([(0, 1000)])
            second = session.execute(self.STAR, **options)
            assert second.count == first.count + 4
            # a repeated row stays on the frontier and is counted twice:
            # F(0) x {A(0,1000) twice} x 4 B rows
            tables["A"].extend([(0, 1000)])
            third = session.execute(self.STAR, **options)
            assert third.metrics.index == "columnar"
            assert third.count == second.count + 4
            reference = join(self.STAR, tables, algorithm="binary",
                             materialize=True)
            assert self.bag(third) == self.bag(reference)
            compiled = session.prepare(self.STAR, algorithm=algorithm,
                                       engine="auto").plan
            assert (compiled.algorithm, compiled.engine) == \
                ("generic", "batch")
