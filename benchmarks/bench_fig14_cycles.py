"""Fig 14 — cycle counting (triangles, rectangles, pentagons) on synthetic
graphs (§5.14).

The Generic Join over each candidate index, plus Hash-Trie Join and the
binary baseline.  Expected shape: GJ+Sonic fastest, Hash-Trie Join close
behind, BTree/HAT-trie grouped, hierarchical map competitive (two-column
tables keep its chains short).
"""

import pytest

from conftest import best_of_rounds, measure_seconds, run_report
from repro.bench import JOIN_INDEXES, print_series
from repro.data import cycle_count_truth, random_edge_relation
from repro.joins import join
from repro.planner import cycle_query

NODES = 60
EDGES = 420
LENGTHS = [3, 4, 5]

CONTENDERS = {"gj_" + name: dict(algorithm="generic", index=name,
                                engine="tuple")
              for name in JOIN_INDEXES}
CONTENDERS.update(hashtrie_join=dict(algorithm="hashtrie"),
                  binary=dict(algorithm="binary"),
                  leapfrog=dict(algorithm="leapfrog"))


def setup(length):
    edges = random_edge_relation(NODES, EDGES, seed=14)
    query = cycle_query(length)
    source = {f"E{i}": edges for i in range(1, length + 1)}
    return edges, query, source


@pytest.mark.parametrize("length", [3, 4])
@pytest.mark.parametrize("name,options",
                         [(n, o) for n, o in CONTENDERS.items()
                          if n in ("gj_sonic", "hashtrie_join", "binary")])
def test_bench_fig14(benchmark, name, options, length):
    _, query, source = setup(length)
    benchmark.pedantic(lambda: join(query, source, **options),
                       rounds=2, iterations=1)


def work(metrics) -> tuple:
    """A run's work counts, ``(intermediates, lookups)``."""
    return metrics.intermediate_tuples, metrics.lookups


def test_report_fig14(benchmark):
    def body():
        series = {name: [] for name in CONTENDERS}
        counts = []
        for length in LENGTHS:
            edges, query, source = setup(length)
            truth = cycle_count_truth(edges, length)
            counts.append(truth)
            runs = best_of_rounds(
                CONTENDERS, lambda options: join(query, source, **options))
            done = {}
            for name, (elapsed, results) in runs.items():
                for result in results:
                    assert result.count == truth, \
                        (name, length, result.count, truth)
                # work counts are deterministic: every round's are equal
                assert len({work(r.metrics) for r in results}) == 1, name
                done[name] = work(results[0].metrics)
                series[name].append(round(elapsed, 1))
            # §5.14 shape, machine-independent: the worst-case optimal
            # joins keep intermediates below the binary pipeline's.  The
            # Generic Join backends do identical work, so Sonic's constant
            # factor over them is a wall-clock claim: the times are
            # printed, not asserted (on a shared host their orderings flip)
            for name in ("gj_sonic", "hashtrie_join", "leapfrog"):
                assert done[name][0] <= done["binary"][0], (name, length)
        series["cycles_found"] = counts
        print_series("Fig 14: cycle counting runtime (ms) vs cycle length",
                     "cycle_len", LENGTHS, series)
        return {"lengths": LENGTHS, **series}

    run_report(benchmark, body, "fig14")
