"""Table 1 — triangle counting on (synthetic stand-ins for) the SNAP
datasets plus the JOB-light relational workload (§5.16).

Columns mirror the paper: BJ (binary join), GJ with BTree / HAT-trie /
Sonic / hierarchical map, HTJ (Hash-Trie Join); EmptyHeaded and Umbra are
not rebuilt (DESIGN.md §1) and appear as "n/a".  Expected shape:

* graphs: GJ+Sonic fastest in most columns, HTJ close;
* JOB: the binary join wins ("this is not a worst-case situation").
"""

import pytest

from conftest import best_of_rounds, measure_seconds, run_report
from repro.bench import print_table
from repro.data import (
    DATASETS,
    job_light_queries,
    load_snap_dataset,
    make_imdb,
    triangle_count_truth,
)
from repro.joins import join

SCALE = 0.15
TRIANGLE = "E1=E(a,b), E2=E(b,c), E3=E(c,a)"
CONTENDERS = {
    "BJ": dict(algorithm="binary"),
    "GJ_btree": dict(algorithm="generic", index="btree", engine="tuple"),
    "GJ_hattrie": dict(algorithm="generic", index="hattrie", engine="tuple"),
    "GJ_sonic": dict(algorithm="generic", index="sonic", engine="tuple"),
    "GJ_hiermap": dict(algorithm="generic", index="hiermap", engine="tuple"),
    "HTJ": dict(algorithm="hashtrie"),
}


def graph_source(name):
    edges = load_snap_dataset(name, scale=SCALE, seed=21)
    return edges, {"E1": edges, "E2": edges, "E3": edges}


@pytest.mark.parametrize("dataset", ["facebook", "wikivote"])
@pytest.mark.parametrize("contender", ["BJ", "GJ_sonic", "HTJ"])
def test_bench_table1_graph(benchmark, dataset, contender):
    _, source = graph_source(dataset)
    benchmark.pedantic(
        lambda: join(TRIANGLE, source, **CONTENDERS[contender]),
        rounds=1, iterations=1)


def run_job_workload(queries, options):
    total = 0
    for job in queries:
        total += join(job.query, job.relations, **options).count
    return total


def test_report_table1(benchmark):
    def body():
        rows = []
        for dataset in DATASETS:
            edges, source = graph_source(dataset)
            truth = triangle_count_truth(edges)
            row = {"workload": dataset, "edges": len(edges)}
            intermediates = {}
            runs = best_of_rounds(
                CONTENDERS, lambda options: join(TRIANGLE, source, **options))
            for contender, (elapsed, results) in runs.items():
                for result in results:
                    assert result.count == truth, (dataset, contender)
                intermediates[contender] = \
                    results[0].metrics.intermediate_tuples
                row[contender] = round(elapsed, 1)
            # paper shape, machine-independent: on every graph the WCOJ
            # candidate work is below the binary pipeline's intermediates
            assert intermediates["GJ_sonic"] <= intermediates["BJ"], dataset
            assert intermediates["HTJ"] <= intermediates["BJ"], dataset
            rows.append(row)

        catalog = make_imdb(400, seed=22)
        queries = job_light_queries(catalog, seed=23, max_satellites=2)
        job_row = {"workload": "JOB-light", "edges": catalog.total_rows()}
        reference = None
        runs = best_of_rounds(
            CONTENDERS, lambda options: run_job_workload(queries, options))
        for contender, (elapsed, totals) in runs.items():
            if reference is None:
                reference = totals[0]
            for total in totals:
                assert total == reference, contender
            job_row[contender] = round(elapsed, 1)
        rows.append(job_row)

        print_table("Table 1: cycle counting + JOB-light runtimes (ms); "
                    "EH/Umbra not rebuilt (see DESIGN.md)", rows)

        # paper shape, graphs (wall clock, within tier): GJ_sonic keeps up
        # with the other pure-Python GJ backends; the per-dataset WCOJ-vs-
        # binary work comparison is asserted above.  (The paper's absolute
        # GJ_sonic-vs-BJ wall-clock gap does not transfer to Python — see
        # EXPERIMENTS.md.)
        graph_rows = rows[:-1]
        for row in graph_rows:
            assert row["GJ_sonic"] <= 2.0 * row["GJ_hattrie"], row
        # paper shape, JOB: the binary join beats every Generic Join
        # configuration (not a worst case).  Hash-Trie Join rides CPython's
        # C dict and can tie or edge out the binary pipeline here — an
        # implementation-tier artifact (EXPERIMENTS.md) — so the paper's
        # claim is asserted against the GJ family plus a near-parity check.
        gj_best = min(job_row[c] for c in CONTENDERS if c.startswith("GJ_"))
        assert job_row["BJ"] <= gj_best
        assert job_row["BJ"] <= 1.5 * min(job_row[c] for c in CONTENDERS)
        return {"rows": rows}

    run_report(benchmark, body, "table1")
