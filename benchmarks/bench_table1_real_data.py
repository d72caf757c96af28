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
    """``(results, intermediates, lookups)`` summed over the queries."""
    totals = [0, 0, 0]
    for job in queries:
        metrics = join(job.query, job.relations, **options).metrics
        totals[0] += metrics.result_count
        totals[1] += metrics.intermediate_tuples
        totals[2] += metrics.lookups
    return tuple(totals)


def work(metrics) -> tuple:
    """A run's work counts, ``(intermediates, lookups)``."""
    return metrics.intermediate_tuples, metrics.lookups


def test_report_table1(benchmark):
    def body():
        rows = []
        for dataset in DATASETS:
            edges, source = graph_source(dataset)
            truth = triangle_count_truth(edges)
            row = {"workload": dataset, "edges": len(edges)}
            counts = {}
            runs = best_of_rounds(
                CONTENDERS, lambda options: join(TRIANGLE, source, **options))
            for contender, (elapsed, results) in runs.items():
                for result in results:
                    assert result.count == truth, (dataset, contender)
                # work counts are deterministic: every round's are equal
                assert len({work(r.metrics) for r in results}) == 1
                counts[contender] = work(results[0].metrics)
                row[contender] = round(elapsed, 1)
            # paper shape, machine-independent: on every graph the WCOJ
            # candidate work is below the binary pipeline's intermediates
            assert counts["GJ_sonic"][0] <= counts["BJ"][0], dataset
            assert counts["HTJ"][0] <= counts["BJ"][0], dataset
            # GJ_sonic against the other Generic Join backends is not
            # checked: they do identical work by construction, so no
            # work count orders them, and their times are printed only
            rows.append(row)

        catalog = make_imdb(400, seed=22)
        queries = job_light_queries(catalog, seed=23, max_satellites=2)
        job_row = {"workload": "JOB-light", "edges": catalog.total_rows()}
        reference = None
        job_counts = {}
        runs = best_of_rounds(
            CONTENDERS, lambda options: run_job_workload(queries, options))
        for contender, (elapsed, totals) in runs.items():
            if reference is None:
                reference = totals[0][0]
            for total in totals:
                assert total[0] == reference, contender
            assert len(set(totals)) == 1, contender
            job_counts[contender] = totals[0][1:]
            job_row[contender] = round(elapsed, 1)
        rows.append(job_row)

        print_table("Table 1: cycle counting + JOB-light runtimes (ms); "
                    "EH/Umbra not rebuilt (see DESIGN.md)", rows)

        # the shapes are asserted in work counts, above for the graphs and
        # here for JOB; the times are printed, not asserted: on a shared
        # host their orderings flip (EXPERIMENTS.md)
        # paper shape, JOB: the binary join beats every Generic Join
        # configuration and Hash-Trie Join (not a worst case): fewer
        # intermediates and fewer lookups than each of them
        for contender in CONTENDERS:
            assert job_counts["BJ"][0] <= job_counts[contender][0], contender
            assert job_counts["BJ"][1] <= job_counts[contender][1], contender
        return {"rows": rows}

    run_report(benchmark, body, "table1")
