"""Seed (anchor) selection behaviour of the WCOJ drivers."""

import random

from repro.joins import GenericJoin, HashTrieJoin, resolve_relations
from repro.joins.executor import build_adapters
from repro.planner import parse_query
from repro.planner.qptree import connectivity_order
from repro.storage import Relation


def skewed_pair():
    """R has a hub value with many children; S is uniform."""
    rng = random.Random(171)
    r_rows = {(0, i) for i in range(300)} | {(i, i) for i in range(1, 40)}
    s_rows = {(rng.randrange(40), rng.randrange(40)) for _ in range(120)}
    return (Relation("R", ("a", "b"), r_rows),
            Relation("S", ("a", "c"), s_rows))


class TestDynamicSeed:
    def test_dynamic_explores_no_more_than_static(self):
        r, s = skewed_pair()
        query = parse_query("R(a,b), S(a,c)")
        relations = resolve_relations(query, {"R": r, "S": s})
        order = connectivity_order(query)

        def run(dynamic):
            adapters = build_adapters(query, relations, order, index="sonic")
            driver = GenericJoin(query, adapters, order=order,
                                 dynamic_seed=dynamic)
            result = driver.run()
            return result.count, driver.metrics.intermediate_tuples

        dynamic_count, dynamic_work = run(True)
        static_count, static_work = run(False)
        assert dynamic_count == static_count
        assert dynamic_work <= static_work

    def test_static_seed_is_smallest_relation(self):
        r, s = skewed_pair()
        query = parse_query("R(a,b), S(a,c)")
        relations = resolve_relations(query, {"R": r, "S": s})
        order = connectivity_order(query)
        adapters = build_adapters(query, relations, order, index="btree")
        driver = GenericJoin(query, adapters, order=order, dynamic_seed=False)
        a_depth = driver.order.index("a")
        assert driver._static_seed[a_depth] == "S"  # |S| = 120 < |R| = 339


class TestHashTrieSeedRule:
    def test_seed_follows_level_width_not_subtree_size(self):
        # R's root table has 40 distinct 'a' values (hub included); S has
        # up to 40 too but fewer rows. Freitag's rule compares table
        # widths at the current level, so the narrower table drives.
        r, s = skewed_pair()
        query = parse_query("R(a,b), S(a,c)")
        relations = resolve_relations(query, {"R": r, "S": s})
        driver = HashTrieJoin(query, relations)
        result = driver.run()
        binary_reference = sum(
            1 for (a1, _) in set(r.rows) for (a2, _) in set(s.rows) if a1 == a2)
        assert result.count == binary_reference

    def test_metrics_track_candidate_work(self):
        r, s = skewed_pair()
        query = parse_query("R(a,b), S(a,c)")
        relations = resolve_relations(query, {"R": r, "S": s})
        driver = HashTrieJoin(query, relations)
        result = driver.run()
        assert driver.metrics.lookups > 0
        assert driver.metrics.intermediate_tuples >= result.count > 0
