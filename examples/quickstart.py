"""Quickstart: joins and the Sonic index in five minutes.

Run with::

    PYTHONPATH=src python examples/quickstart.py
"""

from repro import (
    Relation,
    SonicConfig,
    SonicIndex,
    cycle_query,
    fractional_cover,
    Hypergraph,
    join,
    parse_query,
)


def main() -> None:
    # ------------------------------------------------------------------
    # 1. Relations are named tuple-bags with schemas: a row stored twice
    #    is joined twice (the default engine counts every copy; the
    #    paper's tuple drivers join sets and refuse a repeated row).
    # ------------------------------------------------------------------
    edges = Relation("E", ("src", "dst"), [
        (0, 1), (1, 2), (2, 0),          # a triangle
        (2, 3), (3, 4), (4, 2),          # another triangle
        (1, 3), (4, 0),                  # extra edges
    ])
    print(f"relation: {edges}")

    # ------------------------------------------------------------------
    # 2. Queries are natural joins in datalog style; aliases express
    #    self-joins.  This is the paper's triangle query.
    # ------------------------------------------------------------------
    query = parse_query("E1=E(a,b), E2=E(b,c), E3=E(c,a)")
    print(f"query:    {query}")

    # The AGM machinery is a first-class citizen:
    hypergraph = Hypergraph.from_query(query)
    cover = fractional_cover(hypergraph, {a.alias: len(edges) for a in query})
    print(f"AGM bound: {cover.bound:.1f} (cover weights "
          f"{ {k: round(v, 2) for k, v in cover.weights.items()} })")

    # ------------------------------------------------------------------
    # 3. join() plans, builds the per-query indexes and executes.
    # ------------------------------------------------------------------
    source = {"E1": edges, "E2": edges, "E3": edges}
    # engine="tuple" is the paper's configuration: Generic Join (Alg. 1)
    # over the index named.  Leave it out and join() runs the columnar
    # frontier engine -- same answer.
    result = join(query, source, algorithm="generic", index="sonic",
                  engine="tuple", materialize=True)
    print(f"\ntriangles found: {result.count}")
    for row in result.rows_as_dicts():
        print(f"  {row}")
    print(f"timing: build {result.metrics.build_seconds*1e3:.2f} ms, "
          f"probe {result.metrics.probe_seconds*1e3:.2f} ms")

    # Any algorithm / index combination answers the same query:
    for algorithm in ("binary", "hashtrie", "leapfrog", "auto"):
        count = join(query, source, algorithm=algorithm).count
        print(f"  {algorithm:9s} -> {count} triangles")
    for index in ("btree", "art", "hattrie", "hiermap"):
        count = join(query, source, algorithm="generic", index=index,
                     engine="tuple").count
        print(f"  GJ+{index:8s} -> {count} triangles")

    # ------------------------------------------------------------------
    # 4. The Sonic index can also be used standalone.
    # ------------------------------------------------------------------
    index = SonicIndex(3, SonicConfig.for_tuples(4))
    for row in [(1, 10, 100), (1, 10, 200), (1, 20, 300), (2, 10, 400)]:
        index.insert(row)
    print(f"\nstandalone Sonic: {len(index)} tuples")
    print(f"  contains (1,10,200): {index.contains((1, 10, 200))}")
    print(f"  prefix (1,10):       {sorted(index.prefix_lookup((1, 10)))}")
    print(f"  count_prefix (1,):   {index.count_prefix((1,))}")
    print(f"  next values of (1,): {sorted(index.iter_next_values((1,)))}")

    # cycle_query builds the Fig 14 workloads programmatically
    print(f"\npentagon query: {cycle_query(5)}")


if __name__ == "__main__":
    main()
