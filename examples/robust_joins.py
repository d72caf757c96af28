"""Worst-case robustness: why WCOJ algorithms exist (the Fig 1 story).

Sweeps the triangle workload from uniform to maximally adversarial data
and reports runtime plus — the mechanism behind it — the number of
intermediate tuples each algorithm produced.  Also shows binary-join
*order sensitivity*: the same query with a pinned bad order explodes
where the worst-case optimal join cannot.

Run with::

    PYTHONPATH=src python examples/robust_joins.py
"""

import time

from repro import join
from repro.bench import print_table
from repro.data import adversarial_triangle_tables

QUERY = "R(a,b), S(b,c), T(c,a)"
ROWS = 350


def run(tables, **options):
    start = time.perf_counter()
    result = join(QUERY, tables, **options)
    elapsed = (time.perf_counter() - start) * 1e3
    return result, elapsed


def main() -> None:
    rows = []
    for adversity in (0.0, 0.5, 1.0):
        tables = adversarial_triangle_tables(ROWS, adversity, seed=3)
        entry = {"adversity": adversity}
        for label, options in (
            ("binary", dict(algorithm="binary")),
            ("GJ+sonic", dict(algorithm="generic", index="sonic",
                              engine="tuple")),
            ("hashtrie", dict(algorithm="hashtrie")),
        ):
            result, elapsed = run(tables, **options)
            entry[f"{label}_ms"] = round(elapsed, 1)
            entry[f"{label}_intermediates"] = result.metrics.intermediate_tuples
            entry["triangles"] = result.count
        rows.append(entry)
    print_table("Triangle join under increasing adversity", rows)
    print("note how the binary join's intermediates explode quadratically "
          "while the WCOJ drivers stay near the output size (the AGM bound).")

    # ------------------------------------------------------------------
    # Join-order sensitivity: the poison only matters for binary plans.
    # ------------------------------------------------------------------
    tables = adversarial_triangle_tables(ROWS, adversity=1.0, seed=3)
    order_rows = []
    for order in (["R", "S", "T"], ["S", "T", "R"], ["T", "R", "S"]):
        result, elapsed = run(tables, algorithm="binary", binary_order=order)
        order_rows.append({
            "pinned_order": "->".join(order),
            "ms": round(elapsed, 1),
            "intermediates": result.metrics.intermediate_tuples,
        })
    result, elapsed = run(tables, algorithm="generic", index="sonic",
                          engine="tuple")
    order_rows.append({
        "pinned_order": "(GJ+sonic, any order)",
        "ms": round(elapsed, 1),
        "intermediates": result.metrics.intermediate_tuples,
    })
    print_table("Binary join-order sensitivity on adversarial data",
                order_rows)


if __name__ == "__main__":
    main()
