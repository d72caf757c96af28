"""``python -m repro.obs`` — profile a join and print/export the report.

Three ways to describe the workload:

* ``--demo triangle`` / ``--demo job_light`` — built-in pinned datasets
  (the bench suite's triangle graph, or one JOB-light-style query over
  the synthetic IMDB catalog);
* ``--query "E1=E(a,b), ..." --relation E1=edges.csv ...`` — a query
  string plus CSV-backed relations (``repro.storage.csvio`` format; an
  alias may reuse another alias's file);
* ``--spec spec.json`` — a JSON file ``{"query": ..., "relations":
  {alias: csv_path}, "algorithm": ..., "engine": ..., "index": ...,
  "order": [...]}`` (flags override spec fields).

By default the EXPLAIN ANALYZE text tree is printed; ``--json PATH``
writes the schema-validated profile JSON and ``--trace PATH`` the Chrome
``trace_event`` document (load it in ``chrome://tracing`` or Perfetto).

``--parallel K`` runs the workload sharded over K worker processes:
the text tree grows the per-shard/straggler section, ``--json`` exports
the profile with each worker's own profile under ``sharding.shards``,
and ``--trace`` the *merged* multi-pid Chrome trace with one row per
worker.  Only a frontier plan shards.

A configuration the engine refuses — an unknown ``--algorithm``, or a
tuple driver with ``--parallel`` — prints ``error: <message>`` to
stderr and exits 2, as a usage error does.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.obs",
        description="Profile a join (EXPLAIN ANALYZE) and export the report.",
    )
    workload = parser.add_argument_group("workload")
    workload.add_argument("--demo", choices=("triangle", "job_light"),
                          help="run a built-in demo workload")
    workload.add_argument("--query", help="query string, e.g. "
                          "'E1=E(a,b), E2=E(b,c), E3=E(c,a)'")
    workload.add_argument("--relation", action="append", default=[],
                          metavar="ALIAS=CSV",
                          help="bind an atom alias to a CSV file "
                               "(repeatable)")
    workload.add_argument("--spec", metavar="SPEC.json",
                          help="JSON spec with query/relations/options")
    execution = parser.add_argument_group("execution")
    execution.add_argument("--algorithm", default=None,
                           help="join algorithm (default: generic)")
    execution.add_argument("--engine", default=None,
                           choices=("tuple", "batch", "auto"),
                           help="Generic Join engine (default: auto)")
    execution.add_argument("--index", default=None,
                           help="index structure (default: sonic)")
    execution.add_argument("--parallel", type=int, default=None, metavar="K",
                           help="shard across K worker processes; the "
                                "profile carries each worker's profile and "
                                "the trace is the merged multi-pid Chrome "
                                "trace")
    output = parser.add_argument_group("output")
    output.add_argument("--json", metavar="PATH", dest="json_out",
                        help="write the profile JSON here")
    output.add_argument("--trace", metavar="PATH", dest="trace_out",
                        help="write the Chrome trace_event JSON here")
    output.add_argument("--quiet", action="store_true",
                        help="suppress the text tree (exports only)")
    return parser


def _demo_workload(which: str) -> tuple[str, dict, dict]:
    """(query, relations, default options) for a built-in demo."""
    if which == "triangle":
        from repro.data.graphs import random_edge_relation

        edges = random_edge_relation(300, 1800, seed=13)
        query = "E1=E(a,b), E2=E(b,c), E3=E(c,a)"
        return query, {"E1": edges, "E2": edges, "E3": edges}, {}
    # job_light: the largest 2-satellite query of the pinned workload
    from repro.data.imdb import job_light_queries, make_imdb

    catalog = make_imdb(2000, seed=13)
    item = max((q for q in job_light_queries(catalog, seed=13)
                if len(q.relations) == 3),
               key=lambda q: sum(len(r) for r in q.relations.values()))
    # the JoinQuery object, not str(): the display form (⋈) is not the
    # parseable comma syntax
    return item.query, dict(item.relations), {}


def _spec_workload(path: str) -> tuple[str, dict, dict]:
    from repro.storage.csvio import load_relation

    spec = json.loads(Path(path).read_text())
    if "query" not in spec or "relations" not in spec:
        raise SystemExit(f"{path}: spec needs 'query' and 'relations' keys")
    relations = {
        alias: load_relation(alias, csv_path)
        for alias, csv_path in spec["relations"].items()
    }
    options = {key: spec[key]
               for key in ("algorithm", "engine", "index", "order")
               if key in spec}
    return spec["query"], relations, options


def _flag_workload(args: argparse.Namespace) -> tuple[str, dict, dict]:
    from repro.storage.csvio import load_relation

    if not args.relation:
        raise SystemExit("--query needs at least one --relation ALIAS=CSV")
    paths: dict[str, str] = {}
    for binding in args.relation:
        alias, _, csv_path = binding.partition("=")
        if not alias or not csv_path:
            raise SystemExit(f"bad --relation {binding!r}; expected ALIAS=CSV")
        paths[alias] = csv_path
    loaded: dict[str, object] = {}
    relations = {}
    for alias, csv_path in paths.items():
        if csv_path not in loaded:
            loaded[csv_path] = load_relation(alias, csv_path)
        relations[alias] = loaded[csv_path]
    return args.query, relations, {}


def main(argv: "list[str] | None" = None) -> int:
    args = _build_parser().parse_args(argv)
    sources = [bool(args.demo), bool(args.query), bool(args.spec)]
    if sum(sources) != 1:
        _build_parser().print_usage(sys.stderr)
        print("error: give exactly one of --demo, --query, --spec",
              file=sys.stderr)
        return 2

    if args.demo:
        query, relations, options = _demo_workload(args.demo)
    elif args.spec:
        query, relations, options = _spec_workload(args.spec)
    else:
        query, relations, options = _flag_workload(args)

    if args.algorithm:
        options["algorithm"] = args.algorithm
    if args.engine:
        options["engine"] = args.engine
    if args.index:
        options["index"] = args.index
    if args.parallel is not None:
        options["parallel"] = args.parallel

    from repro.errors import ConfigurationError
    from repro.joins.executor import join
    from repro.obs.profile import validate_profile

    try:
        result = join(query, relations, profile=True, **options)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    profile = result.profile
    payload = validate_profile(profile.as_dict())

    if args.json_out:
        Path(args.json_out).write_text(json.dumps(payload, indent=2) + "\n")
    if args.trace_out:
        Path(args.trace_out).write_text(
            json.dumps(profile.to_chrome_trace(), indent=2) + "\n")
    if not args.quiet:
        print(profile.render())
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
