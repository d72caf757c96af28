"""Smoke test of the end-to-end benchmark (``python -m pytest benchmarks/e2e -q``).

Runs every workload at ``--smoke`` size the way the growth driver does —
``run.py --workload NAME --seed N --seconds S --trace 0|1`` — and checks the
last line of each run against ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def run_benchmark(*extra: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    command = [sys.executable, *SPEC["command"][1:], *extra]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=180, check=False)


@pytest.fixture(scope="module")
def runs() -> dict:
    """``(workload, trace) -> (result object, standard output)``."""
    results = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            done = run_benchmark("--workload", workload, "--seed", "13",
                                 "--seconds", "1", "--trace", str(trace),
                                 "--smoke")
            assert done.returncode == 0, done.stdout + done.stderr
            results[workload, trace] = (
                json.loads(done.stdout.splitlines()[-1]), done.stdout)
    return results


def test_benchmark_json_is_well_formed():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/e2e"]
    names = ([w["name"] for w in SPEC["workloads"]]
             + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]])
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(UNIT.fullmatch(m["unit"])
               for m in SPEC["end_to_end"] + SPEC["per_layer"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in SPEC["workloads"])


def test_metric_names_printed_are_those_of_benchmark_json(runs):
    for (workload, trace), (result, printed) in runs.items():
        wanted = SPEC["per_layer" if trace else "end_to_end"]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert list(result["metrics"]) == [m["name"] for m in wanted]
        for metric in wanted:
            entry = result["metrics"][metric["name"]]
            assert entry["unit"] == metric["unit"]
            assert isinstance(entry["value"], (int, float))
            assert re.search(rf"^{workload}\s+{re.escape(metric['name'])}\s",
                             printed, re.MULTILINE)


def test_end_to_end_metrics_are_never_zero(runs):
    for workload in WORKLOADS:
        metrics = runs[workload, 0][0]["metrics"]
        assert all(entry["value"] > 0 for entry in metrics.values()), metrics


def test_smoke_answers_equal_the_oracle(runs):
    for result, _ in runs.values():
        assert result["correct"] is True
        assert result["failed"] == 0
        assert result["attempted"] >= 1


def test_traced_run_writes_spans_and_layer_table(runs):
    for workload in WORKLOADS:
        trace = json.loads((HERE / "out" / f"{workload}.trace.json").read_text())
        names = {event["name"] for event in trace["traceEvents"]}
        assert {"engine.bind", "engine.plan", "engine.prepare",
                "engine.execute", "data.generate"} <= names
        table = (HERE / "out" / f"{workload}.layers.txt").read_text()
        assert "unattributed residual" in table
        layers = runs[workload, 1][0]["metrics"]
        assert layers["bench.attributed_frac"]["value"] >= 0.9


def test_cyclic_workloads_keep_the_worst_case_optimal_promise(runs):
    for workload in ("triangle_uniform", "clique4_powerlaw", "triangle_sharded"):
        layers = runs[workload, 1][0]["metrics"]
        assert layers["joins.intermediates_over_agm"]["value"] <= 1.0


def test_one_seed_gives_one_input():
    sys.path.insert(0, str(ROOT / "src"))
    import measure
    import workloads

    for name in WORKLOADS:
        first = workloads.build(name, 13, "smoke", measure.Tracer(False))
        again = workloads.build(name, 13, "smoke", measure.Tracer(False))
        other = workloads.build(name, 14, "smoke", measure.Tracer(False))
        assert first.input_hash == again.input_hash
        assert first.input_hash == workloads.PINS[name, "smoke"]
        assert first.ops == again.ops
        assert first.index == again.index
        # another seed, another input: at least the traffic differs (the
        # heavy-tailed datasets themselves are fixed, see workloads.PINNED_SEED)
        assert (first.ops, first.index) != (other.ops, other.index)


def test_no_shared_memory_left_behind(runs):
    if os.path.isdir("/dev/shm"):
        assert not [n for n in os.listdir("/dev/shm") if n.startswith("repro_shm_")]


def test_fails_without_the_program(tmp_path):
    """In a directory with only the benchmark, it exits non-zero, no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run_benchmark("--workload", WORKLOADS[0], "--seed", "1",
                         "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip().endswith("}")
