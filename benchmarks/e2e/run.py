#!/usr/bin/env python3
"""One end-to-end benchmark: six pinned workloads, every metric by name.

    python3 benchmarks/e2e/run.py [--seed 13] [--workload NAME] [--smoke]
                                  [--trace] [--aa] [--seconds N]

Without ``--workload`` every workload runs, each in its own subprocess from
this one driver process, one after another.  With ``--workload`` the last
line of standard output is the result object the growth driver reads::

    {"correct": true, "attempted": 1234, "failed": 0, "metrics": {...}}

``--trace 0`` (default) reports the end-to-end metrics, measured with
tracing off.  ``--trace`` reports the per-layer metrics from a separate
staged, traced run and writes the span file and the layer table under
``benchmarks/e2e/out/``.  ``--aa`` runs two full sets of the same code and
fails if any pair of medians differs by more than the metric's bound.

Names, units and bounds come from ``BENCHMARK.json`` at the repository
root; ``README.md`` beside this file explains the method.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
CHILD_TIMEOUT_S = 170
SETUP_SAMPLES = 3            # set-ups per run; setup_s is their median


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ----------------------------------------------------------------------
# roles run in a subprocess: one set-up, or one whole workload
# ----------------------------------------------------------------------
def timed_setup(args):
    """Import the program, generate inputs, build relations, ask the oracle."""
    import measure

    clock = measure.Clock()
    tracer = measure.Tracer()

    def setup():
        sys.path.insert(0, str(ROOT / "src"))
        with tracer.span("setup.import"):
            import workloads
        return workloads.build(args.workload, args.seed, args.scale, tracer)

    seconds, workload = clock.time(setup)
    return clock, tracer, seconds, workload


def setup_role(args) -> dict:
    _, _, seconds, workload = timed_setup(args)
    return {"setup_s": seconds, "input_hash": workload.input_hash}


def worker_role(args) -> dict:
    clock, tracer, setup_s, workload = timed_setup(args)
    setup_scale = clock.last_scale
    import worker

    result = worker.run(workload, clock, tracer, setup_scale, args.seconds,
                        args.trace, OUT)
    usage = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
             + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    result["setup_s"] = setup_s
    result["input_hash"] = workload.input_hash
    result["peak_rss_mib"] = usage / 1024
    return result


# ----------------------------------------------------------------------
# the driver: spawns the roles, assembles and prints the metrics
# ----------------------------------------------------------------------
def spawn(role: str, args, trace: int) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--role", role,
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(trace),
               "--scale", args.scale]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S, check=False)
    if done.returncode != 0:
        raise SystemExit(f"{role} for {args.workload} exited with "
                         f"{done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def run_workload(args, spec: dict, trace: int) -> dict:
    """One run of one workload: its metrics, attempts and failures."""
    setups = [spawn("setup", args, 0)["setup_s"]
              for _ in range(0 if args.scale == "smoke" else SETUP_SAMPLES - 1)]
    result = spawn("worker", args, trace)
    setups.append(result["setup_s"])
    values = dict(result["values"])
    if not trace:
        values["setup_s"] = statistics.median(setups)
        values["peak_rss_mib"] = result["peak_rss_mib"]
    wanted = spec["per_layer" if trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    extras = {name: value for name, value in values.items()
              if name not in metrics}
    return {"correct": result["failed"] == 0 and result["correct"],
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": metrics, "extras": extras,
            "detail": result["detail"], "input_hash": result["input_hash"]}


def print_run(name: str, run: dict) -> None:
    """Every metric by name with its unit, quartiles and sample count."""
    failed_frac = run["failed"] / run["attempted"]
    print(f"== {name}: {run['attempted']} operations checked, "
          f"failed_frac {failed_frac:.6f}, inputs sha256 "
          f"{run['input_hash'][:16]}")
    for metric, entry in run["metrics"].items():
        detail = run["detail"].get(metric)
        spread = (f"  q1 {detail['q1']:.6g}  q3 {detail['q3']:.6g}  "
                  f"n {detail['n']}" if detail else "")
        print(f"{name:18s} {metric:32s} {entry['value']:14.6g} "
              f"{entry['unit']:6s}{spread}")
    for metric, value in sorted(run["extras"].items()):
        print(f"{name:18s} {metric:32s} {value:14.6g}")


def run_set(args, spec: dict, names: list, trace: int) -> dict:
    runs = {}
    for name in names:
        args.workload = name
        runs[name] = run_workload(args, spec, trace)
        print_run(name, runs[name])
    return runs


def aa_table(spec: dict, first: dict, second: dict) -> tuple[list, bool]:
    """Relative gap of medians per (metric, workload) beside its bound."""
    lines = ["| workload | metric | run A | run B | gap | bound | ok |",
             "|---|---|---|---|---|---|---|"]
    ok = True
    for name in first:
        for metric in spec["end_to_end"]:
            a = first[name]["metrics"][metric["name"]]["value"]
            b = second[name]["metrics"][metric["name"]]["value"]
            gap = abs(b - a) / a
            within = gap <= metric["bound"]
            ok = ok and within
            lines.append(f"| {name} | {metric['name']} | {a:.6g} | {b:.6g} | "
                         f"{gap:.3f} | {metric['bound']} | "
                         f"{'yes' if within else 'NO'} |")
    return lines, ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=13)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, one second per workload")
    parser.add_argument("--aa", action="store_true",
                        help="two sets of the same code, gaps beside bounds")
    parser.add_argument("--role", choices=("driver", "setup", "worker"),
                        default="driver", help=argparse.SUPPRESS)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.smoke:
        args.scale = "smoke"

    if args.role != "driver":
        result = (setup_role if args.role == "setup" else worker_role)(args)
        print(json.dumps(result))
        return 0

    spec = load_spec()
    if args.seconds is None:
        args.seconds = 1 if args.scale == "smoke" else spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None:
        if args.workload not in names:
            parser.error(f"unknown workload {args.workload!r}; one of {names}")
        run = run_workload(args, spec, args.trace)
        print_run(args.workload, run)
        print(json.dumps({key: run[key] for key in
                          ("correct", "attempted", "failed", "metrics")}))
        return 0 if run["correct"] else 1

    runs = run_set(args, spec, names, 0)
    correct = all(run["correct"] for run in runs.values())
    if args.trace:
        # a separate traced run; its numbers never replace the ones above.
        # Level 2 adds each workload's own extra layer measurements.
        traced = run_set(args, spec, names, 1 if args.scale == "smoke" else 2)
        correct = correct and all(run["correct"] for run in traced.values())
    if args.aa:
        lines, within = aa_table(spec, runs, run_set(args, spec, names, 0))
        print("\n".join(lines))
        correct = correct and within
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
