"""One workload's measuring loop: sweeps of all three sections until time is up.

A *sweep* takes one sample of every metric (one cold pass, one warm pass,
one serve replay, one index pass), so the samples of any one metric are
spread over the whole run instead of taken back to back, and slow drift of
a shared machine lands inside the quartiles.  One untimed warm-up sweep
comes first; at least two timed sweeps always run.

The untraced run (``trace == 0``) yields the end-to-end metrics.  The
traced run replaces the cold pass by the staged re-run under spans and adds
the planner, oracle and cache measurements; ``trace == 2`` also runs the
workload's own extra layer measurements (:mod:`extras`).
"""

from __future__ import annotations

import gc
import os
import time
from statistics import median
from collections import defaultdict

import extras
import measure
import workloads
from sections import (
    RAISED,
    STAGES,
    IndexSection,
    JoinSection,
    ServeSection,
    Tally,
)

SHM_DIR = "/dev/shm"
MIN_SWEEPS = 2
MIN_ATTRIBUTED = 0.9


def _shm_segments() -> set:
    if not os.path.isdir(SHM_DIR):
        return set()
    return {name for name in os.listdir(SHM_DIR) if name.startswith("repro_shm_")}


def run(workload, clock, setup_tracer, setup_scale: float, seconds: float,
        trace: int, out_dir) -> dict:
    tally = Tally()
    shm_before = _shm_segments()
    joins = JoinSection(workload, tally)
    try:
        serve = ServeSection(workload, tally)
        index = IndexSection(workload, tally)
        samples: dict[str, list] = defaultdict(list)
        tracer = measure.Tracer(enabled=bool(trace))
        sweep = _traced_sweep if trace else _sweep
        sweep(workload, joins, serve, index, clock, tracer, defaultdict(list))
        gc.collect()
        gc.freeze()              # set-up objects leave the collector's reach
        tracer.spans.clear()
        clock.slowdowns.clear()
        started = time.perf_counter()
        sweeps = 0
        while sweeps < MIN_SWEEPS or time.perf_counter() - started < seconds:
            tracer.enabled = bool(trace) and sweeps % 2 == 0
            sweep(workload, joins, serve, index, clock, tracer, samples)
            sweeps += 1
        extra = extras.run(workload, clock) if trace == 2 else {}
    finally:
        joins.close()
    # segments still present after every prepared join and session is closed;
    # reported, not failed on: they do go when the interpreter exits
    leaked = len(_shm_segments() - shm_before)

    if trace:
        values, correct = _layer_values(joins, serve, samples, clock,
                                        setup_tracer, setup_scale, leaked)
        values.update(extra)
        _write_trace(out_dir, workload.name, tracer, setup_tracer, values)
    else:
        values, correct = _end_to_end_values(samples), True
    detail = {name: measure.quartiles(samples[name])
              for name in values if len(samples.get(name, ())) >= 2}
    return {"values": values, "detail": detail, "sweeps": sweeps,
            "attempted": tally.attempted, "failed": tally.failed,
            "correct": correct}


# ----------------------------------------------------------------------
# untraced: the end-to-end metrics
# ----------------------------------------------------------------------
def _side_sections(serve, index, clock, tracer, samples) -> dict:
    served = serve.run_pass(clock, tracer)
    samples["reads"].extend(served["reads"])
    samples["stale"].extend(served["stale"])
    samples["ops_per_s"].append(served["ops_per_s"])
    for name, value in index.run_pass(clock, tracer).items():
        samples[name].append(value)
    return served


def _join_passes(joins, clock, samples) -> None:
    seconds, results = clock.time(joins.cold_pass)
    joins.check(results, "cold")
    samples["cold_s"].append(seconds)
    seconds, results = clock.time(joins.warm_pass)
    joins.check(results, "warm")
    samples["warm_s"].append(seconds)


def _sweep(workload, joins, serve, index, clock, tracer, samples) -> None:
    _join_passes(joins, clock, samples)
    _side_sections(serve, index, clock, tracer, samples)
    for _ in range(workload.join_passes - 1):
        _join_passes(joins, clock, samples)


def _end_to_end_values(samples) -> dict:
    reads = samples["reads"]
    values = {name: median(samples[name]) for name in (
        "cold_s", "warm_s", "ops_per_s", "build_s", "insert_us", "point_us",
        "prefix_us", "count_us", "bytes_per_tuple")}
    values["read_p50_ms"] = median(reads) * 1e3
    # nearest rank; with fewer than 200 reads (smoke) fewer than ten samples
    # lie beyond it and the number is indicative only
    values["read_p95_ms"] = measure.percentile(reads, 0.95) * 1e3
    values["stale_read_p50_ms"] = median(samples["stale"]) * 1e3
    samples["read_p50_ms"] = samples["read_p95_ms"] = [r * 1e3 for r in reads]
    samples["stale_read_p50_ms"] = [r * 1e3 for r in samples["stale"]]
    return values


# ----------------------------------------------------------------------
# traced: the per-layer metrics
# ----------------------------------------------------------------------
def _traced_sweep(workload, joins, serve, index, clock, tracer, samples) -> None:
    seconds, results = clock.time(joins.cold_pass)
    joins.check(results, "cold")
    samples["join_s"].append(seconds)

    mark = len(tracer.spans)
    seconds, results = clock.time(joins.staged_pass, tracer)
    joins.check(results, "staged")
    samples["staged_s"].append(seconds)
    samples["staged_on_s" if tracer.enabled else "staged_off_s"].append(seconds)
    scale = clock.last_scale
    count = len(joins.queries)
    if tracer.enabled:
        stage = {name: tracer.seconds(name, mark) for name in STAGES}
        samples["bench.attributed_frac"].append(
            sum(stage.values()) * scale / seconds)
        samples["engine.bind_us"].append(stage["engine.bind"] * scale / count * 1e6)
        samples["engine.plan_us"].append(stage["engine.plan"] * scale / count * 1e6)
        samples["engine.prepare_s"].append(stage["engine.prepare"] * scale)
        samples["engine.execute_s"].append(stage["engine.execute"] * scale)
        metrics = [result.metrics for result in results
                   if result is not RAISED]
        samples["joins.probe_s"].append(
            sum(m.probe_seconds for m in metrics) * scale)
        samples["joins.intermediates"].append(
            sum(m.intermediate_tuples for m in metrics))
        samples["joins.lookups"].append(sum(m.lookups for m in metrics))
        samples["joins.results"].append(sum(m.result_count for m in metrics))

        mark = len(tracer.spans)
        clock.time(joins.planner_pass, tracer)
        for name in ("planner.parse", "planner.order", "planner.agm",
                     "engine.warm_prepare"):
            samples[name + "_us"].append(
                tracer.seconds(name, mark) * clock.last_scale / count * 1e6)

    seconds, _ = clock.time(_oracle_pass, workload)
    samples["oracle.numpy_s"].append(seconds)

    mark = len(tracer.spans)
    served = _side_sections(serve, index, clock, tracer, samples)
    if tracer.enabled:
        # not inside a timed pass, so scaled by the nearest calibration
        samples["storage.relation_build_s"].append(
            tracer.seconds("storage.relation_build", mark) * clock.last_scale)
    samples["storage.extend_us"].extend(w * 1e6 for w in served["writes"])
    for name in ("cache_hit_ratio", "cache_evictions", "cache_bytes",
                 "rebuilds_per_write"):
        samples["engine." + name].append(served[name])


def _oracle_pass(workload) -> list:
    return [workloads.expected_count(spec, state)
            for spec, state in workload.oracle_specs]


def _layer_values(joins, serve, samples, clock, setup_tracer,
                  setup_scale: float, leaked: int) -> tuple[dict, bool]:
    values = {name: median(samples[name]) for name in samples
              if "." in name}
    values["data.generate_s"] = setup_tracer.seconds("data.generate") * setup_scale
    values["engine.cache_budget_bytes"] = serve.cache_budget
    values["engine.cache_working_set_bytes"] = serve.working_set
    values["core.sonic_build_s"] = median(samples["build_s"])
    values["core.sonic_bytes"] = median(samples["sonic_bytes"])
    values["joins.lookups_per_result"] = (
        values["joins.lookups"] / max(values["joins.results"], 1))
    values["joins.intermediates_over_agm"] = (
        values["joins.intermediates"] / joins.agm_total())
    values["parallel.shm_leaked"] = leaked
    values["oracle.ratio_x"] = median(samples["join_s"]) / values["oracle.numpy_s"]
    values["bench.staged_vs_join_frac"] = (
        median(samples["staged_s"]) / median(samples["join_s"]) - 1)
    values["bench.trace_overhead_frac"] = (
        median(samples["staged_on_s"]) / median(samples["staged_off_s"]) - 1)
    values["bench.calibration_x"] = median(clock.slowdowns)
    correct = values["bench.attributed_frac"] >= MIN_ATTRIBUTED
    return values, correct


def _write_trace(out_dir, name: str, tracer, setup_tracer, values: dict) -> None:
    """The span file (Chrome trace_event JSON) and the layer table."""
    out_dir.mkdir(exist_ok=True)
    tracer.spans[:0] = setup_tracer.spans
    tracer.write(out_dir / f"{name}.trace.json")
    attributed = values["bench.attributed_frac"]
    lines = [f"layer table for {name} (reference-speed units, see README)",
             f"{'metric':36s} {'value':>14s}"]
    lines += [f"{metric:36s} {value:14.6g}" for metric, value in sorted(values.items())]
    lines.append(f"staged pass: {attributed:.4f} attributed to stage spans, "
                 f"{1 - attributed:.4f} unattributed residual "
                 f"(must stay below {1 - MIN_ATTRIBUTED:.1f})")
    (out_dir / f"{name}.layers.txt").write_text("\n".join(lines) + "\n")
