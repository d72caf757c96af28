"""Layer measurements that belong to one workload only (``--trace`` by hand).

The growth driver's traced run reports the per-layer metrics every workload
has.  These are the ones that explain a single workload — the twin paths
ROADMAP item 3 wants to delete, the sharded runtime, the observer's own
cost, Sonic beside the other tries — and take too long to repeat on every
workload.  Each compares alternatives in interleaved rounds: one round runs
every alternative once, so drift hits all of them alike.
"""

from __future__ import annotations

from statistics import median

import numpy as np

import workloads
from repro import Relation, Session, SonicConfig, join, parse_query
from repro.data import random_edge_relation, zipf_table
from repro.engine import bind, plan, prepare
from repro.indexes import make_index
from repro.obs import JoinObserver

ROUNDS = 5


def _rounds(clock, alternatives: dict, rounds: int = ROUNDS) -> dict:
    """Median reference seconds of each thunk over interleaved rounds."""
    for call in alternatives.values():       # untimed warm-up
        call()
    samples = {name: [] for name in alternatives}
    for _ in range(rounds):
        for name, call in alternatives.items():
            samples[name].append(clock.time(call)[0])
    return {name: median(values) for name, values in samples.items()}


def _triangle(relation: Relation, **options):
    query = parse_query("E1=E(a,b), E2=E(b,c), E3=E(c,a)")
    relations = {"E1": relation, "E2": relation, "E3": relation}
    return lambda: join(query, relations, **options).count


def triangle_uniform(workload, clock) -> dict:
    edges = workload.queries[0].relations["E1"]
    obs = _rounds(clock, {
        "absent": _triangle(edges, **workloads.GENERIC),
        "disabled": _triangle(edges, obs=JoinObserver.disabled(),
                              **workloads.GENERIC),
        "profile": _triangle(edges, profile=True, **workloads.GENERIC),
    })
    small = random_edge_relation(2000, 10000, seed=13)
    engines = _rounds(clock, {
        "batch": _triangle(small, **workloads.GENERIC),
        "tuple": _triangle(small, algorithm="generic", index="sonic",
                           engine="tuple"),
    })
    return {
        "obs.disabled_overhead_frac": obs["disabled"] / obs["absent"] - 1,
        "obs.profile_overhead_frac": obs["profile"] / obs["absent"] - 1,
        "joins.tuple_engine_x": engines["tuple"] / engines["batch"],
    }


def star_acyclic(workload, clock) -> dict:
    def forced(**options):
        return lambda: [join(q.query, q.relations, **options).count
                        for q in workload.queries]

    seconds = _rounds(clock, {"generic": forced(**workloads.GENERIC),
                              "unified": forced(**workloads.UNIFIED)}, rounds=3)
    return {"joins.generic_on_star_s": seconds["generic"],
            "joins.unified_on_star_s": seconds["unified"]}


def serve_mixed(workload, clock) -> dict:
    core_ears = workload.queries[-1]

    def forced(**options):
        return lambda: join(core_ears.query, core_ears.relations, **options).count

    seconds = _rounds(clock, {"unified": forced(**workloads.UNIFIED),
                              "generic": forced(**workloads.GENERIC),
                              "binary": forced(algorithm="binary")})
    return {f"joins.{name}_core_ears_ms": value * 1e3
            for name, value in seconds.items()}


def index_ops(workload, clock) -> dict:
    plan = workload.index
    columns = [np.array(column, dtype=np.int64) for column in zip(*plan.rows)]
    values = {}
    for kind in ("sortedtrie", "hashtrie"):
        built = []

        def build(kind=kind):
            index = make_index(kind, plan.arity)
            index.build_bulk(columns)
            built[:] = [index]

        def points():
            contains = built[0].contains
            return [contains(row) for row in plan.points]

        seconds = _rounds(clock, {"build": build, "point": points}, rounds=3)
        values[f"indexes.{kind}_build_s"] = seconds["build"]
        values[f"indexes.{kind}_point_us"] = (
            seconds["point"] / len(plan.points) * 1e6)

    def inserts(alpha: float):
        rows = zipf_table("skew", 10000, 3, alpha=alpha, seed=13).rows

        def run():
            index = make_index("sonic", 3,
                               config=SonicConfig.for_tuples(len(rows)))
            for row in rows:     # per-row insert is what is measured
                index.insert(row)  # repro: noqa[RA806]

        return run

    seconds = _rounds(clock, {"uniform": inserts(0.0), "skewed": inserts(1.0)},
                      rounds=3)
    values["core.insert_skew_x"] = seconds["skewed"] / seconds["uniform"]
    return values


def triangle_sharded(workload, clock) -> dict:
    q = workload.queries[0]
    session = Session(q.relations)
    single = session.prepare(q.query, **workloads.GENERIC)
    sharded = session.prepare(q.query, **q.options)
    try:
        seconds = _rounds(clock, {"single": lambda: single.execute().count,
                                  "sharded": lambda: sharded.execute().count})
    finally:
        sharded.close()
        session.close()
    # the cold sharded path taken apart: partition + shm, then pool + probe
    prepares, executes = [], []
    bound = bind(q.query, q.relations)
    join_plan = plan(bound, **q.options)
    for _ in range(ROUNDS):
        elapsed, prepared = clock.time(prepare, bound, join_plan)
        prepares.append(elapsed)
        try:
            executes.append(clock.time(prepared.execute)[0])
        finally:
            prepared.close()
    return {"parallel.speedup_x": seconds["single"] / seconds["sharded"],
            "parallel.prepare_s": median(prepares),
            "parallel.execute_s": median(executes)}


EXTRAS = {
    "triangle_uniform": triangle_uniform,
    "star_acyclic": star_acyclic,
    "serve_mixed": serve_mixed,
    "index_ops": index_ops,
    "triangle_sharded": triangle_sharded,
}


def run(workload, clock) -> dict:
    """The extra layer metrics of this workload (none for clique4_powerlaw)."""
    measurement = EXTRAS.get(workload.name)
    return measurement(workload, clock) if measurement else {}
