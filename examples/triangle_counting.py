"""Graph analytics: cycle counting over social-network-like datasets.

The paper's Table 1 scenario — triangle counting over the SNAP datasets,
here over the synthetic stand-ins (DESIGN.md §1) — comparing every join
algorithm and GJ index.

Run with::

    PYTHONPATH=src python examples/triangle_counting.py
"""

import time

from repro import join
from repro.bench import print_table
from repro.data import DATASETS, load_snap_dataset, triangle_count_truth
from repro.planner import cycle_query

TRIANGLE = "E1=E(a,b), E2=E(b,c), E3=E(c,a)"
CONTENDERS = {
    "binary": dict(algorithm="binary"),
    "GJ+sonic": dict(algorithm="generic", index="sonic", engine="tuple"),
    "GJ+btree": dict(algorithm="generic", index="btree", engine="tuple"),
    "hashtrie": dict(algorithm="hashtrie"),
    "leapfrog": dict(algorithm="leapfrog"),
}


def main() -> None:
    rows = []
    for dataset in DATASETS:
        edges = load_snap_dataset(dataset, scale=0.12, seed=7)
        truth = triangle_count_truth(edges)
        source = {"E1": edges, "E2": edges, "E3": edges}
        row = {"dataset": dataset, "edges": len(edges), "triangles": truth}
        for name, options in CONTENDERS.items():
            start = time.perf_counter()
            result = join(TRIANGLE, source, **options)
            elapsed = (time.perf_counter() - start) * 1e3
            assert result.count == truth, (dataset, name)
            row[name] = f"{elapsed:.1f}ms"
        rows.append(row)
    print_table("Triangle counting across datasets (all algorithms agree)",
                rows)

    # longer cycles on the smallest dataset: the Fig 14 sweep
    edges = load_snap_dataset("facebook", scale=0.1, seed=7)
    cycle_rows = []
    for length in (3, 4):
        query = cycle_query(length)
        source = {f"E{i}": edges for i in range(1, length + 1)}
        entry = {"cycle_length": length}
        for name, options in CONTENDERS.items():
            start = time.perf_counter()
            result = join(query, source, **options)
            entry[name] = f"{(time.perf_counter()-start)*1e3:.1f}ms"
            entry["count"] = result.count
        cycle_rows.append(entry)
    print_table("Cycle counting on the Facebook stand-in", cycle_rows)


if __name__ == "__main__":
    main()
