"""End-to-end integration tests across the whole stack."""

import subprocess
import sys

import pytest

from repro import Relation, join, parse_query
from repro.storage.catalog import Catalog
from repro.data import load_snap_dataset, make_imdb, job_light_queries, triangle_count_truth
from repro.planner import clique_query, cycle_query


class TestGraphWorkloads:
    def test_triangles_on_snap_standin(self):
        edges = load_snap_dataset("facebook", scale=0.15, seed=3)
        truth = triangle_count_truth(edges)
        source = {"E1": edges, "E2": edges, "E3": edges}
        query = "E1=E(a,b), E2=E(b,c), E3=E(c,a)"
        assert join(query, source, index="sonic",
                    engine="tuple").count == truth
        assert join(query, source, algorithm="hashtrie").count == truth

    def test_four_cycles_agree(self):
        edges = load_snap_dataset("wikivote", scale=0.1, seed=4)
        query = cycle_query(4)
        source = {f"E{i}": edges for i in range(1, 5)}
        counts = {join(query, source, algorithm=a).count
                  for a in ("generic", "binary", "leapfrog")}
        assert len(counts) == 1

    def test_clique_query_runs(self):
        edges = load_snap_dataset("facebook", scale=0.1, seed=5)
        query = clique_query(3)  # triangle expressed as a clique
        source = {atom.alias: edges for atom in query.atoms}
        result = join(query, source, index="sonic", engine="tuple")
        assert result.count == triangle_count_truth(edges)


class TestRelationalWorkloads:
    def test_job_light_binary_vs_wcoj_full_sweep(self):
        catalog = make_imdb(250, seed=6)
        for job in job_light_queries(catalog, seed=7, max_satellites=3)[:8]:
            binary = join(job.query, job.relations, algorithm="binary").count
            wcoj = join(job.query, job.relations, index="sonic",
                        engine="tuple").count
            assert binary == wcoj, job.name

    def test_catalog_workflow(self):
        catalog = Catalog([
            Relation("orders", ("order_id", "customer"),
                     [(i, i % 7) for i in range(60)]),
            Relation("items", ("order_id", "product"),
                     [(i % 60, i % 11) for i in range(120)]),
        ])
        result = join("orders(o, c), items(o, p)", catalog,
                      algorithm="auto", materialize=True)
        assert result.count > 0
        # every output row joins correctly
        orders = set(catalog["orders"].rows)
        for row in result.rows_as_dicts():
            assert (row["o"], row["c"]) in orders


class TestEmptyAndDegenerateInputs:
    def test_all_algorithms_handle_empty_relation(self):
        empty = Relation("E", ("s", "d"), [])
        source = {"E1": empty, "E2": empty, "E3": empty}
        query = "E1=E(a,b), E2=E(b,c), E3=E(c,a)"
        for algorithm in ("generic", "binary", "hashtrie", "leapfrog"):
            assert join(query, source, algorithm=algorithm).count == 0

    def test_single_tuple_everywhere(self):
        one = Relation("E", ("s", "d"), [(1, 1)])
        source = {"E1": one, "E2": one, "E3": one}
        query = "E1=E(a,b), E2=E(b,c), E3=E(c,a)"
        for algorithm in ("generic", "binary", "hashtrie", "leapfrog"):
            assert join(query, source, algorithm=algorithm).count == 1

    def test_disconnected_query_is_cross_product(self):
        r = Relation("R", ("a", "b"), [(1, 2), (3, 4)])
        s = Relation("S", ("x", "y"), [(5, 6), (7, 8), (9, 10)])
        query = parse_query("R(a,b), S(x,y)")
        for algorithm in ("generic", "binary", "leapfrog"):
            assert join(query, {"R": r, "S": s},
                        algorithm=algorithm).count == 6


class TestModuleEntryPoint:
    @pytest.mark.slow
    def test_python_dash_m_repro(self):
        completed = subprocess.run(
            [sys.executable, "-m", "repro"],
            capture_output=True, text=True, timeout=300,
        )
        assert completed.returncode == 0, completed.stdout + completed.stderr
        assert "self-check passed" in completed.stdout
