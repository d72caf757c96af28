"""Shared fixtures and helpers for the per-figure benchmarks.

Every file here regenerates one figure or table of the paper (see
DESIGN.md §3).  Run with::

    pytest benchmarks/ --benchmark-only

Two kinds of entries per file:

* ``test_bench_*`` — pytest-benchmark measurements of individual cells
  (one index / one configuration), giving stable relative numbers;
* ``test_report_*`` — a single-round run of the full sweep that prints the
  paper-style series/table (the rows EXPERIMENTS.md records).

Sizes are scaled from the paper's 256M-row tables to Python-appropriate
workloads; the *shape* of each result (who wins, by what factor, where
crossovers sit) is the reproduction target.
"""

from __future__ import annotations

import time
from pathlib import Path

from repro.bench import save_results, time_callable
from repro.data import zipf_table


def bench_rows(num_rows: int, num_columns: int, alpha: float = 0.0,
               seed: int = 0, domain: int | None = None):
    """Deterministic benchmark input rows."""
    return zipf_table("bench", num_rows, num_columns, domain=domain,
                      alpha=alpha, seed=seed).rows


def measure_seconds(fn, repeats: int = 3) -> float:
    return time_callable(fn, repeats=repeats).best_seconds


def best_of_rounds(contenders: dict, run) -> dict:
    """``{contender: (best ms, [result of each run])}`` over three rounds,
    each timing ``run(options)`` once per entry of ``contenders`` (name →
    options): interleaved, so that one slow moment of a shared host costs
    one run of one contender, not its only run."""
    runs = {contender: (float("inf"), []) for contender in contenders}
    for _ in range(3):
        for contender, options in contenders.items():
            start = time.perf_counter()
            result = run(options)
            elapsed = (time.perf_counter() - start) * 1e3
            best, results = runs[contender]
            runs[contender] = (min(best, elapsed), results + [result])
    return runs


RESULTS_PATH = Path(__file__).parent / "results.json"


def run_report(benchmark, fn, experiment: str | None = None):
    """Run a report body once under pytest-benchmark and persist its payload.

    ``fn`` computes the full sweep, prints the paper-style series and
    returns a JSON-serializable payload (or None).  Wrapping it in a
    single-round pedantic benchmark keeps report entries alive under
    ``--benchmark-only``.
    """
    payload: list = []

    def once():
        payload.append(fn())

    benchmark.pedantic(once, rounds=1, iterations=1)
    if experiment and payload and payload[0] is not None:
        save_results(RESULTS_PATH, experiment, payload[0])
