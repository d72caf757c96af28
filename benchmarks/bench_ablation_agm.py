"""Ablation — AGM-guided anchor selection in the Generic Join (DESIGN.md §4).

``dynamic_seed=True`` re-selects the enumeration seed per binding from
count-prefix comparisons (Alg. 1's size check); ``dynamic_seed=False``
freezes the seed per attribute by base relation size — precisely the
simplification Hash-Trie Join makes (§5.15).  On skewed data the dynamic
choice explores fewer candidates.
"""

from conftest import measure_seconds, run_report
from repro.bench import print_table
from repro.data import umbra_adversarial_tables
from repro.joins import join

ROWS = 300
QUERY = "R1(a,b,d,e), R2(a,c,d,f), R3(a,b,c), R4(b,d,f), R5(c,e,f)"


def run(dynamic):
    source = umbra_adversarial_tables(ROWS, alpha=0.95, seed=32)
    return join(QUERY, source, algorithm="generic", index="sonic",
                engine="tuple", dynamic_seed=dynamic)


def test_bench_ablation_agm_dynamic(benchmark):
    benchmark.pedantic(lambda: run(True), rounds=2, iterations=1)


def test_bench_ablation_agm_static(benchmark):
    benchmark.pedantic(lambda: run(False), rounds=2, iterations=1)


def test_report_ablation_agm(benchmark):
    def body():
        rows = []
        counts = set()
        intermediates = {}
        for label, dynamic in (("dynamic (AGM-guided)", True),
                               ("static (HTJ-like)", False)):
            result = run(dynamic)
            counts.add(result.count)
            intermediates[label] = result.metrics.intermediate_tuples
            seconds = measure_seconds(lambda: run(dynamic), repeats=2)
            rows.append({
                "seed_policy": label,
                "total_ms": round(seconds * 1e3, 2),
                "intermediates": result.metrics.intermediate_tuples,
                "lookups": result.metrics.lookups,
                "results": result.count,
            })
        print_table("Ablation: per-binding AGM anchor selection", rows)
        assert len(counts) == 1  # policies agree on the answer
        # the dynamic policy must not explore more candidates
        assert intermediates["dynamic (AGM-guided)"] <= \
            intermediates["static (HTJ-like)"]
        return {"rows": rows}

    run_report(benchmark, body, "ablation_agm")
