"""Shard-equivalence property tests: ``parallel=K`` vs single-process.

The sharded multiprocess path must be observationally identical to the
single-process engine — same counts, same materialized rows — on uniform
and Zipf-skewed inputs.  Only a frontier plan shards; every other join
driver and the tuple engine must refuse ``parallel=K``, and answer
single-process exactly as the sharded frontier plan does.  Degenerate splits (more shards than
distinct keys, empty relations, one shard owning >90% of the rows) must
degrade to correct answers, never wrong ones.
"""

import random

import pytest

from repro.data.zipf import ZipfGenerator
from repro.engine import bind, plan
from repro.engine.pipeline import servable
from repro.errors import ConfigurationError
from repro.joins import join
from repro.planner.query import parse_query
from repro.storage.relation import Relation

TRIANGLE = parse_query("E1=E(a,b), E2=E(b,c), E3=E(c,a)")
BOWTIE = parse_query(
    "E1=E(a,b), E2=E(b,c), E3=E(c,a), E4=E(a,d), E5=E(d,e), E6=E(e,a)")
CHAIN3 = parse_query("E1=E(a,b), E2=E(b,c), E3=E(c,d)")

ALGORITHMS = ("generic", "binary", "hashtrie", "leapfrog", "recursive")


def random_edges(count: int, domain: int, seed: int) -> Relation:
    rng = random.Random(seed)
    rows = {(rng.randrange(domain), rng.randrange(domain))
            for _ in range(count)}
    return Relation("E", ("src", "dst"), rows)


def zipf_edges(count: int, domain: int, alpha: float, seed: int) -> Relation:
    src = ZipfGenerator(domain, alpha=alpha, seed=seed).sample(count)
    dst = ZipfGenerator(domain, alpha=alpha, seed=seed + 1).sample(count)
    rows = set(zip(src.tolist(), dst.tolist()))
    return Relation("E", ("src", "dst"), rows)


def self_join_relations(query, edges: Relation) -> dict:
    return {atom.alias: edges for atom in query.atoms}


def assert_sharded_agrees(query, relations, workers=2, **kwargs):
    single = join(query, relations, materialize=True, **kwargs)
    if not servable(plan(bind(query, relations), **kwargs)):
        with pytest.raises(ConfigurationError,
                           match=r'join\(engine="tuple"\)'):
            join(query, relations, parallel=workers, **kwargs)
        kwargs = {}
    sharded = join(query, relations, materialize=True, parallel=workers,
                   **kwargs)
    assert sharded.count == single.count
    assert sorted(sharded.rows) == sorted(single.rows)
    return single, sharded


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_every_driver_agrees_sharded(algorithm):
    edges = random_edges(300, 40, seed=3)
    assert_sharded_agrees(TRIANGLE, self_join_relations(TRIANGLE, edges),
                          algorithm=algorithm)


@pytest.mark.parametrize("engine", ["tuple", "batch"])
@pytest.mark.parametrize("index", ["sonic", "sortedtrie"])
def test_generic_engines_and_indexes(engine, index):
    edges = random_edges(250, 35, seed=5)
    assert_sharded_agrees(TRIANGLE, self_join_relations(TRIANGLE, edges),
                          engine=engine, index=index)


@pytest.mark.parametrize("query", [TRIANGLE, BOWTIE, CHAIN3],
                         ids=["triangle", "bowtie", "chain3"])
@pytest.mark.parametrize("workers", [2, 3])
def test_query_shapes(query, workers):
    edges = random_edges(220, 30, seed=11)
    assert_sharded_agrees(query, self_join_relations(query, edges),
                          workers=workers, engine="batch")


@pytest.mark.parametrize("alpha", [0.6, 1.1], ids=["mild", "heavy"])
def test_zipf_skewed_inputs(alpha):
    edges = zipf_edges(350, 50, alpha=alpha, seed=7)
    assert_sharded_agrees(TRIANGLE, self_join_relations(TRIANGLE, edges))


def test_more_shards_than_distinct_keys():
    # only 3 distinct leading values: most of the 8 shards are empty and
    # must be skipped, not executed against garbage
    rows = [(a, b) for a in range(3) for b in range(3)]
    edges = Relation("E", ("src", "dst"), rows)
    single, sharded = assert_sharded_agrees(
        TRIANGLE, self_join_relations(TRIANGLE, edges), workers=8)
    assert sharded.count == single.count


def test_empty_relation():
    empty = Relation("E", ("src", "dst"), [])
    result = join(TRIANGLE, self_join_relations(TRIANGLE, empty), parallel=4)
    assert result.count == 0


def test_heavy_skew_single_hot_shard():
    # >90% of rows share one leading value: one shard does nearly all
    # the work, the rest are near-empty — counts must still agree
    rng = random.Random(13)
    rows = {(0, dst) for dst in range(600)}
    rows |= {(rng.randrange(1, 40), rng.randrange(200)) for _ in range(40)}
    rows |= {(b, 0) for b in range(50)}  # close some triangles through 0
    edges = Relation("E", ("src", "dst"), rows)
    hot = sum(1 for r in edges.rows if r[0] == 0)
    assert hot / len(edges) > 0.85
    assert_sharded_agrees(TRIANGLE, self_join_relations(TRIANGLE, edges),
                          workers=4)


def test_non_self_join():
    rng = random.Random(5)
    r = Relation("R", ("a", "b"),
                 {(rng.randrange(25), rng.randrange(25)) for _ in range(120)})
    s = Relation("S", ("b", "c"),
                 {(rng.randrange(25), rng.randrange(25)) for _ in range(120)})
    t = Relation("T", ("c", "a"),
                 {(rng.randrange(25), rng.randrange(25)) for _ in range(120)})
    query = parse_query("R(a,b), S(b,c), T(c,a)")
    assert_sharded_agrees(query, {"R": r, "S": s, "T": t})


def test_parallel_one_is_a_valid_degenerate_fleet():
    edges = random_edges(150, 25, seed=2)
    assert_sharded_agrees(TRIANGLE, self_join_relations(TRIANGLE, edges),
                          workers=1)


def test_profile_counters_cover_shards():
    edges = random_edges(200, 30, seed=9)
    result = join(TRIANGLE, self_join_relations(TRIANGLE, edges),
                  parallel=3, profile=True)
    counters = result.profile.counters
    assert counters["parallel.executions"] == 1
    assert counters["parallel.shards"] + counters["parallel.shards_skipped"] == 3
