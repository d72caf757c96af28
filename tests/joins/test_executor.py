"""Top-level join() API tests."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import Relation, join, parse_query
from repro.data import random_edge_relation, triangle_count_truth
from repro.errors import ConfigurationError, QueryError
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
    a Generic Join stage has no such option, with or without the plan
    validator in the way."""

    QUERY = "E1=E(a,b), E2=E(b,c), E3=E(c,a)"

    @pytest.mark.parametrize("debug", [False, True])
    @pytest.mark.parametrize("algorithm", ["generic", "unified", "auto"])
    def test_generic_stages_refuse_it_at_plan_time(self, edges, algorithm,
                                                   debug):
        with pytest.raises(ConfigurationError, match="cannot honor") as error:
            join(self.QUERY, {"E1": edges, "E2": edges, "E3": edges},
                 algorithm=algorithm, lazy=True, debug=debug)
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


class TestDebugMode:
    """join(debug=True) runs the static plan validator before executing."""

    def test_debug_join_still_correct(self, edges):
        truth = triangle_count_truth(edges)
        result = join("E1=E(a,b), E2=E(b,c), E3=E(c,a)",
                      {"E1": edges, "E2": edges, "E3": edges}, debug=True)
        assert result.count == truth

    def test_debug_rejects_bad_order(self, edges):
        from repro.errors import PlanValidationError

        with pytest.raises(PlanValidationError, match="RA302"):
            join("E1=E(a,b), E2=E(b,c), E3=E(c,a)",
                 {"E1": edges, "E2": edges, "E3": edges},
                 order=("a", "b"), debug=True)

    def test_without_debug_bad_order_fails_later_or_not_at_all(self, edges):
        # the non-debug path does not run the plan validator: the one
        # order check raises a plain QueryError naming the missing
        # attribute instead
        from repro.errors import PlanValidationError

        with pytest.raises(QueryError, match=r"missing \['c'\]") as error:
            join("E1=E(a,b), E2=E(b,c), E3=E(c,a)",
                 {"E1": edges, "E2": edges, "E3": edges},
                 order=("a", "b"), debug=False)
        assert not isinstance(error.value, PlanValidationError)

    def test_env_variable_enables_debug(self, edges, monkeypatch):
        from repro.errors import PlanValidationError

        monkeypatch.setenv("REPRO_DEBUG", "1")
        with pytest.raises(PlanValidationError):
            join("E1=E(a,b), E2=E(b,c), E3=E(c,a)",
                 {"E1": edges, "E2": edges, "E3": edges},
                 order=("a", "b"))

    def test_env_variable_off_values(self, edges, monkeypatch):
        monkeypatch.setenv("REPRO_DEBUG", "0")
        result = join("E1=E(a,b), E2=E(b,c), E3=E(c,a)",
                      {"E1": edges, "E2": edges, "E3": edges})
        assert result.count == triangle_count_truth(edges)

    def test_the_validator_is_imported_by_the_first_debug_call(self):
        # the plan checks live in the static analyzer's package, whose
        # four rule families are a fifth of ``import repro``: a process
        # that never asks for debug mode never loads them
        script = """
import sys
from repro import Relation, join
from repro.errors import PlanValidationError

def loaded():
    return sorted(name for name in sys.modules
                  if name == "repro.analysis"
                  or name.startswith("repro.analysis."))

before = loaded()
edges = Relation("E", ("s", "d"), [(0, 1), (1, 2), (2, 0)])
tables = {"E1": edges, "E2": edges, "E3": edges}
query = "E1=E(a,b), E2=E(b,c), E3=E(c,a)"
plain = join(query, tables).count
unchecked = loaded()
try:
    join(query, tables, order=("a", "b"), debug=True)
    raised = None
except PlanValidationError as error:
    raised = "RA302" in str(error)
print(before, plain, unchecked, raised, "repro.analysis.plancheck" in loaded())
"""
        source = Path(__file__).resolve().parents[2] / "src"
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=str(source), REPRO_DEBUG="0"),
            timeout=120, check=True)
        assert done.stdout.strip() == "[] 3 [] True True"

    def test_debug_binary_path(self, edges):
        result = join("E1=E(a,b), E2=E(b,c), E3=E(c,a)",
                      {"E1": edges, "E2": edges, "E3": edges},
                      algorithm="binary", debug=True)
        assert result.count == triangle_count_truth(edges)


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
