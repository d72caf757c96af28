"""Relational workloads and the hybrid optimizer.

The paper's §5.16 lesson: on acyclic PK-FK star joins (JOB-light), binary
hash joins beat every worst-case optimal algorithm — WCOJ robustness is
not free.  Umbra's answer ([22], §6) is a *hybrid* optimizer that picks
per query; this example runs the synthetic JOB-light workload and shows
the optimizer routing stars to the binary pipeline and a cyclic query to
the Generic Join.

That lesson compares two tuple-at-a-time engines, and the first two
timing columns reproduce it (binary against Generic Join over Sonic).
This repository also has a columnar batch engine, whose build is one
sort per relation where a hash table is a Python loop per row — and an
acyclic query is all build.  So unless the engine is pinned
(``engine="auto"`` is the default) the plan stage overrides the
optimizer's "acyclic -> binary": the batch engine returns the same bag
of rows on any input, repeated rows and string keys included.  The
third column is that route; the last lines show a repeated row staying
on it, counted as the binary pipeline counts it.

Run with::

    PYTHONPATH=src python examples/job_light_hybrid.py
"""

import time

from repro import Relation, join
from repro.bench import print_table
from repro.engine import bind, plan
from repro.data import job_light_queries, make_imdb, random_edge_relation
from repro.planner import HybridOptimizer, Statistics
from repro.joins import resolve_relations
from repro.planner import parse_query


def main() -> None:
    catalog = make_imdb(num_titles=300, seed=5)
    print("synthetic IMDB:", {r.name: len(r) for r in catalog})

    queries = job_light_queries(catalog, seed=6, max_satellites=3)
    print(f"JOB-light-style workload: {len(queries)} queries\n")

    optimizer = HybridOptimizer()
    rows = []
    totals = {"binary": 0.0, "GJ+sonic": 0.0, "auto": 0.0}
    for job in queries[:8]:
        relations = resolve_relations(job.query, job.relations)
        stats = Statistics.collect(relations.values())
        choice = optimizer.choose(job.query, stats)

        timings = {}
        counts = set()
        for label, options in (("binary", dict(algorithm="binary")),
                               ("GJ+sonic", dict(algorithm="generic",
                                                 index="sonic",
                                                 engine="tuple")),
                               ("auto", dict(algorithm="auto"))):
            start = time.perf_counter()
            result = join(job.query, job.relations, **options)
            timings[label] = (time.perf_counter() - start) * 1e3
            totals[label] += timings[label]
            counts.add(result.count)
        assert len(counts) == 1, job.name
        rows.append({
            "query": job.name,
            "results": counts.pop(),
            "binary_ms": round(timings["binary"], 2),
            "gj_sonic_ms": round(timings["GJ+sonic"], 2),
            "auto_ms": round(timings["auto"], 2),
            "optimizer": choice.algorithm,
        })
    print_table("JOB-light: binary vs WCOJ vs the planned route "
                "(optimizer choice in last column)", rows)
    print(f"workload totals: binary {totals['binary']:.1f} ms, "
          f"GJ+sonic {totals['GJ+sonic']:.1f} ms, "
          f"auto {totals['auto']:.1f} ms")

    # where the planned route goes, and that a repeated row stays on it
    job = queries[0]
    planned = plan(bind(job.query, job.relations), algorithm="auto")
    print(f"\n{job.name} -> {planned.describe()}")
    satellite = next(r for name, r in job.relations.items() if name != "title")
    repeated = dict(job.relations)
    repeated[satellite.name] = Relation(
        satellite.name, satellite.schema.attributes,
        satellite.rows + satellite.rows[:1])
    planned = plan(bind(job.query, repeated), algorithm="auto")
    counts = {label: join(job.query, repeated, algorithm=label).count
              for label in ("auto", "binary")}
    print(f"one repeated row -> {planned.describe()}: {counts}")

    # and the counterexample: a cyclic query routes to WCOJ
    edges = random_edge_relation(60, 400, seed=8)
    triangle = parse_query("E1=E(a,b), E2=E(b,c), E3=E(c,a)")
    relations = resolve_relations(triangle,
                                  {"E1": edges, "E2": edges, "E3": edges})
    choice = optimizer.choose(triangle, Statistics.collect(relations.values()))
    print(f"\ntriangle query -> {choice.algorithm}: {choice.reason}")
    result = join(triangle, {"E1": edges, "E2": edges, "E3": edges},
                  algorithm="auto")
    print(f"auto mode executed it with: {result.metrics.algorithm}")


if __name__ == "__main__":
    main()
