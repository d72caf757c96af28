"""``python -m repro`` — self-check demo plus tooling subcommands.

With no arguments (or ``selfcheck``) this builds a small graph, runs the
triangle query through every join algorithm and every prefix-capable
index, checks the results against a brute-force oracle, and prints a
one-screen summary.  Exits non-zero on any disagreement, so it doubles as
a smoke test for packaging.

Subcommands::

    python -m repro selfcheck          # the default: algorithm/index sweep
    python -m repro analysis [args…]   # static analysis (see repro.analysis)
    python -m repro obs [args…]        # join profiler (see repro.obs)
"""

from __future__ import annotations

import sys
import time


def selfcheck() -> int:
    from repro import __version__, join, parse_query
    from repro.data import random_edge_relation, triangle_count_truth
    from repro.indexes import prefix_capable_indexes
    from repro.planner import Hypergraph, fractional_cover

    print(f"repro {__version__} — SonicJoin reproduction self-check")
    edges = random_edge_relation(45, 300, seed=42)
    truth = triangle_count_truth(edges)
    query = parse_query("E1=E(a,b), E2=E(b,c), E3=E(c,a)")
    source = {"E1": edges, "E2": edges, "E3": edges}

    cover = fractional_cover(Hypergraph.from_query(query),
                             {a.alias: len(edges) for a in query})
    print(f"graph: {len(edges)} edges; triangles (oracle): {truth}; "
          f"AGM bound: {cover.bound:.0f}")

    failures = 0
    for algorithm in ("generic", "binary", "hashtrie", "leapfrog", "auto"):
        start = time.perf_counter()
        count = join(query, source, algorithm=algorithm).count
        elapsed = (time.perf_counter() - start) * 1e3
        status = "ok" if count == truth else f"MISMATCH (got {count})"
        failures += count != truth
        print(f"  algorithm {algorithm:9s} {elapsed:7.1f} ms  {status}")
    for index in prefix_capable_indexes():
        start = time.perf_counter()
        # the paper's path: the default engine builds no registry index
        count = join(query, source, algorithm="generic", index=index,
                     engine="tuple").count
        elapsed = (time.perf_counter() - start) * 1e3
        status = "ok" if count == truth else f"MISMATCH (got {count})"
        failures += count != truth
        print(f"  GJ index  {index:9s} {elapsed:7.1f} ms  {status}")

    if failures:
        print(f"self-check FAILED: {failures} disagreement(s)")
        return 1
    print("self-check passed; see examples/ and benchmarks/ for more")
    return 0


def main(argv: "list[str] | None" = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] == "selfcheck":
        return selfcheck()
    if argv[0] == "analysis":
        from repro.analysis.cli import main as analysis_main

        return analysis_main(argv[1:])
    if argv[0] == "obs":
        from repro.obs.cli import main as obs_main

        return obs_main(argv[1:])
    print(f"unknown subcommand {argv[0]!r}; "
          "usage: python -m repro [selfcheck | analysis | obs …]",
          file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
