"""AGM bound / fractional edge cover tests (§2.1–2.2)."""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.errors import QueryError
from repro.planner import (
    Hypergraph,
    agm_bound,
    cycle_query,
    fractional_cover,
    integral_cover_bound,
    parse_query,
)


SRC = Path(__file__).resolve().parents[2] / "src"


def hypergraph(text):
    return Hypergraph.from_query(parse_query(text))


def fresh_interpreter(script: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    return done.stdout.strip()


HEAVY = """
def heavy():
    return sorted({name.split(".")[0] for name in sys.modules}
                  & {"scipy", "networkx"})
"""


class TestHeavyImportsOnFirstUse:
    """scipy.optimize (the LP) and networkx (the graph generators) are
    half of ``import repro``'s time and a third of its memory; a process
    that never asks for them never loads them."""

    def test_import_repro_loads_neither_scipy_nor_networkx(self):
        assert fresh_interpreter(
            "import repro, sys" + HEAVY + "print(heavy())") == "[]"

    def test_a_default_frontier_plan_solves_no_cover(self):
        # the serving path: auto/auto over a star and over a triangle
        assert fresh_interpreter("""
import sys
from repro import Relation, Session, parse_query
""" + HEAVY + """
edges = Relation("E", ("s", "d"), [(0, 1), (1, 2), (2, 0)])
session = Session({"E": edges})
star = session.execute(parse_query("A=E(t,x), B=E(t,y)"),
                       algorithm="auto", engine="auto")
triangle = session.execute(parse_query("A=E(a,b), B=E(b,c), C=E(c,a)"),
                           algorithm="auto", engine="auto")
print(star.count, triangle.count, heavy())
""") == "3 3 []"

    def test_the_first_cover_imports_scipy_and_answers_the_triangle(self):
        assert fresh_interpreter("""
import sys
from repro.planner import Hypergraph, agm_bound, parse_query
""" + HEAVY + """
before = heavy()
graph = Hypergraph.from_query(parse_query("R(a,b), S(b,c), T(c,a)"))
bound = agm_bound(graph, {"R": 1000, "S": 1000, "T": 1000})
print(before, round(bound), heavy())
""") == "[] 31623 ['scipy']"


class TestTriangle:
    """The paper's worked example: |Q| <= n^{3/2} with u = (1/2,1/2,1/2)."""

    def test_optimal_weights(self):
        cover = fractional_cover(hypergraph("R(a,b), S(b,c), T(c,a)"),
                                 {"R": 1000, "S": 1000, "T": 1000})
        for weight in cover.weights.values():
            assert weight == pytest.approx(0.5, abs=1e-6)

    def test_bound_is_n_to_three_halves(self):
        n = 1000
        bound = agm_bound(hypergraph("R(a,b), S(b,c), T(c,a)"),
                          {"R": n, "S": n, "T": n})
        assert bound == pytest.approx(n ** 1.5, rel=1e-6)

    def test_fractional_beats_integral(self):
        n = 1000
        graph = hypergraph("R(a,b), S(b,c), T(c,a)")
        sizes = {"R": n, "S": n, "T": n}
        fractional = agm_bound(graph, sizes)
        integral = integral_cover_bound(graph, sizes)
        assert integral == pytest.approx(n * n)
        assert fractional < integral


class TestGeneralQueries:
    def test_chain_query_bound(self):
        # acyclic chain R(a,b) S(b,c): cover weights (1,1) -> n*m... the LP
        # actually picks both edges at weight 1 since each has a private
        # vertex
        bound = agm_bound(hypergraph("R(a,b), S(b,c)"), {"R": 100, "S": 50})
        assert bound == pytest.approx(100 * 50, rel=1e-6)

    def test_single_relation(self):
        bound = agm_bound(hypergraph("R(a,b)"), {"R": 77})
        assert bound == pytest.approx(77)

    def test_five_cycle_bound(self):
        # odd cycle of length 5: fractional cover weight 1/2 per edge,
        # bound n^{5/2}
        n = 100
        graph = Hypergraph.from_query(cycle_query(5))
        sizes = {f"E{i}": n for i in range(1, 6)}
        assert agm_bound(graph, sizes) == pytest.approx(n ** 2.5, rel=1e-6)

    def test_empty_relation_pulls_bound_down(self):
        bound = agm_bound(hypergraph("R(a,b), S(b,c), T(c,a)"),
                          {"R": 0, "S": 1000, "T": 1000})
        assert bound <= 1000  # an empty edge caps the product

    def test_missing_cardinality_rejected(self):
        with pytest.raises(QueryError):
            fractional_cover(hypergraph("R(a,b)"), {})


class TestCoverVerification:
    def test_lp_solution_is_feasible(self):
        graph = hypergraph("R(a,b,c), S(c,d), T(d,a)")
        cover = fractional_cover(graph, {"R": 500, "S": 400, "T": 300})
        for vertex in graph.vertices:
            assert sum(cover.weights.get(edge, 0.0)
                       for edge in graph.edges_with(vertex)) >= 1 - 1e-9

    def test_log_bound_consistent(self):
        graph = hypergraph("R(a,b), S(b,c), T(c,a)")
        cover = fractional_cover(graph, {"R": 100, "S": 200, "T": 300})
        assert cover.bound == pytest.approx(math.exp(cover.log_bound))
