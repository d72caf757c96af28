"""Top-level join() API tests."""

import pytest

from repro import Relation, Session, join, parse_query
from repro.data import random_edge_relation, triangle_count_truth
from repro.errors import ConfigurationError, QueryError
from repro.obs.observer import JoinObserver
from repro.storage.catalog import Catalog


@pytest.fixture
def edges():
    return random_edge_relation(30, 180, seed=31)


class TestJoinApi:
    def test_query_as_string(self, edges):
        result = join("E1=E(a,b), E2=E(b,c), E3=E(c,a)",
                      {"E1": edges, "E2": edges, "E3": edges})
        assert result.count == triangle_count_truth(edges)

    def test_catalog_source(self, edges):
        catalog = Catalog([edges])
        result = join("E1=E(a,b), E2=E(b,c), E3=E(c,a)", catalog)
        assert result.count == triangle_count_truth(edges)

    def test_relation_name_fallback(self):
        r = Relation("R", ("a", "b"), [(1, 2)])
        s = Relation("S", ("b", "c"), [(2, 3)])
        assert join("R(a,b), S(b,c)", {"R": r, "S": s}).count == 1

    def test_unknown_algorithm(self, edges):
        with pytest.raises(ConfigurationError):
            join("E1=E(a,b), E2=E(b,c), E3=E(c,a)",
                 {"E1": edges, "E2": edges, "E3": edges},
                 algorithm="quantum")

    def test_missing_relation(self):
        with pytest.raises(QueryError):
            join("R(a,b), S(b,c)", {"R": Relation("R", ("a", "b"), [])})

    def test_arity_mismatch(self):
        with pytest.raises(QueryError):
            join("R(a,b,c)", {"R": Relation("R", ("a", "b"), [(1, 2)])})

    def test_materialize_returns_rows(self, edges):
        result = join("E1=E(a,b), E2=E(b,c), E3=E(c,a)",
                      {"E1": edges, "E2": edges, "E3": edges},
                      materialize=True)
        assert len(result.rows) == result.count
        assert result.rows_as_dicts()[0].keys() == set(result.attributes)

    def test_counting_mode_has_no_rows(self, edges):
        result = join("E1=E(a,b), E2=E(b,c), E3=E(c,a)",
                      {"E1": edges, "E2": edges, "E3": edges})
        with pytest.raises(AttributeError):
            result.rows

    def test_build_time_recorded_for_wcoj(self, edges):
        result = join("E1=E(a,b), E2=E(b,c), E3=E(c,a)",
                      {"E1": edges, "E2": edges, "E3": edges}, index="sonic",
                      engine="tuple")
        assert result.metrics.build_seconds > 0
        assert result.metrics.index == "sonic"

    def test_auto_picks_binary_for_star(self):
        f = Relation("F", ("t", "x"), [(i, i) for i in range(40)])
        a = Relation("A", ("t", "p"), [(i, i + 1) for i in range(40)])
        # the paper's rule (Table 1), which engine="tuple" leaves alone
        result = join("F(t,x), A(t,p)", {"F": f, "A": a}, algorithm="auto",
                      engine="tuple")
        assert result.metrics.algorithm == "binary_join"
        assert result.count == 40

    def test_auto_picks_wcoj_for_triangle(self, edges):
        result = join("E1=E(a,b), E2=E(b,c), E3=E(c,a)",
                      {"E1": edges, "E2": edges, "E3": edges},
                      algorithm="auto")
        assert result.metrics.algorithm == "generic_join_batch"


class TestLazyOption:
    """``lazy=`` is Hash-Trie Join's own knob (Umbra's lazy expansion);
    a Generic Join stage has no such option."""

    QUERY = "E1=E(a,b), E2=E(b,c), E3=E(c,a)"

    @pytest.mark.parametrize("through_session", [False, True])
    @pytest.mark.parametrize("algorithm", ["generic", "unified", "auto"])
    def test_generic_stages_refuse_it_at_plan_time(self, edges, algorithm,
                                                   through_session):
        tables = {"E1": edges, "E2": edges, "E3": edges}
        with pytest.raises(ConfigurationError, match="cannot honor") as error:
            if through_session:
                Session(tables).execute(self.QUERY, algorithm=algorithm,
                                        lazy=True)
            else:
                join(self.QUERY, tables, algorithm=algorithm, lazy=True)
        # the message names what it would have accepted
        assert "['lazy']" in str(error.value)
        assert "sonic_bucket_size" in str(error.value)

    @pytest.mark.parametrize("parallel", [None, 2])
    def test_hashtrie_keeps_its_own(self, edges, parallel):
        tables = {"E1": edges, "E2": edges, "E3": edges}
        if parallel:
            # the option is Hash-Trie Join's; sharding is the frontier's
            with pytest.raises(ConfigurationError,
                               match=r'join\(engine="tuple"\)'):
                join(self.QUERY, tables, algorithm="hashtrie", lazy=False,
                     parallel=parallel)
        result = join(self.QUERY, tables, algorithm="hashtrie", lazy=False)
        assert result.count == triangle_count_truth(edges)


class TestTriangleCount:
    def test_matches_truth_for_each_algorithm(self, edges):
        truth = triangle_count_truth(edges)
        query = parse_query("E1=E(a,b), E2=E(b,c), E3=E(c,a)")
        tables = {"E1": edges, "E2": edges, "E3": edges}
        for algorithm in ("generic", "binary", "hashtrie", "leapfrog"):
            assert join(query, tables, algorithm=algorithm).count == truth


class TestDebugIsNoOption:
    """Every input is checked once, always, so there is no debug mode: a
    ``debug=`` argument is an index option nothing honors, refused
    before anything is built."""

    QUERY = "E1=E(a,b), E2=E(b,c), E3=E(c,a)"

    @staticmethod
    def assert_nothing_built(observer):
        names = {span["name"] for span in observer.tracer.as_dicts()}
        assert not names & {"prepare", "build_index", "probe"}, names
        assert observer.build_ns == {}

    @pytest.mark.parametrize("options", [{}, {"algorithm": "binary"}],
                             ids=["frontier", "binary"])
    def test_join_refuses_it(self, edges, options):
        observer = JoinObserver()
        with pytest.raises(ConfigurationError, match="'debug'"):
            join(self.QUERY, {"E1": edges, "E2": edges, "E3": edges},
                 debug=True, obs=observer, **options)
        self.assert_nothing_built(observer)

    def test_session_execute_refuses_it(self, edges):
        session = Session({"E1": edges, "E2": edges, "E3": edges})
        observer = JoinObserver()
        with pytest.raises(ConfigurationError, match="'debug'"):
            session.execute(self.QUERY, debug=True, obs=observer)
        self.assert_nothing_built(observer)
        assert session.cache_stats().entries == 0


class TestTotalOrderIsCheckedOnce:
    """An ``order=`` that is not a permutation of the query's attributes
    gets one outcome whichever driver would read it: a ``QueryError``
    naming what is wrong, before anything is built."""

    TRIANGLE = "E1=E(a,b), E2=E(b,c), E3=E(c,a)"
    #: 3 triangles; the edges themselves are 4 rows
    EDGES = [(0, 1), (1, 2), (2, 0), (0, 2)]

    @pytest.mark.parametrize("order, named", [
        (["a", "b"], r"missing \['c'\], repeated \[\], unknown \[\]"),
        (["a", "b", "z"], r"missing \['c'\], repeated \[\], unknown \['z'\]"),
        (["a", "a", "b", "c"], r"missing \[\], repeated \['a'\], unknown"),
    ], ids=["missing", "unknown", "repeated"])
    @pytest.mark.parametrize("options", [
        {}, {"engine": "tuple", "index": "sonic"}, {"algorithm": "hashtrie"},
        {"algorithm": "leapfrog"}, {"algorithm": "recursive"},
    ], ids=["frontier", "tuple-sonic", "hashtrie", "leapfrog", "recursive"])
    def test_a_bad_order_raises_naming_it(self, options, order, named):
        edges = Relation("E", ("src", "dst"), self.EDGES)
        tables = {"E1": edges, "E2": edges, "E3": edges}
        assert join(self.TRIANGLE, tables, **options).count == 3
        with pytest.raises(QueryError, match=named):
            join(self.TRIANGLE, tables, order=order, **options)
