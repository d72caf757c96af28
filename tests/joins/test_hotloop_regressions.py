"""Regressions for the hoisted per-probe allocations in the join drivers.

The per-probe allocations in ``GenericJoin._join_level`` (fresh
participant/others/survived lists per partial binding) and
``LeapfrogTrieJoin._join_level`` (fresh iterator list per level entry)
were hoisted into per-depth lists built once per ``run()``, and dead
``participants``/``candidates`` stores were removed.  These tests pin
the restructured drivers to the old semantics — same results, balanced
cursors.
"""

from repro.data import adversarial_triangle_tables
from repro.joins import (
    BinaryHashJoin,
    GenericJoin,
    LeapfrogTrieJoin,
    RecursiveJoin,
    resolve_relations,
)
from repro.joins.executor import build_adapters
from repro.planner import parse_query, total_order
from repro.storage import Relation


def normalized(result, attrs):
    return {tuple(dict(zip(result.attributes, row))[a] for a in attrs)
            for row in result.rows}


def triangle_setup(n=160, seed=5):
    tables = adversarial_triangle_tables(n, adversity=0.7, seed=seed)
    query = parse_query("R(a,b), S(b,c), T(c,a)")
    return query, tables


class TestDriversAgreeAfterRestructure:
    def test_generic_join_matches_binary_on_triangle(self):
        query, tables = triangle_setup()
        relations = resolve_relations(query, tables)
        order = total_order(query)
        adapters = build_adapters(query, relations, order, index="btree")
        generic = GenericJoin(query, adapters, order=order).run(materialize=True)
        binary = BinaryHashJoin(query, relations).run(materialize=True)
        attrs = ("a", "b", "c")
        assert normalized(generic, attrs) == normalized(binary, attrs)

    def test_leapfrog_matches_binary_on_triangle(self):
        query, tables = triangle_setup()
        relations = resolve_relations(query, tables)
        leapfrog = LeapfrogTrieJoin(query, relations).run(materialize=True)
        binary = BinaryHashJoin(query, relations).run(materialize=True)
        attrs = ("a", "b", "c")
        assert normalized(leapfrog, attrs) == normalized(binary, attrs)

    def test_recursive_matches_binary_on_triangle(self):
        query, tables = triangle_setup(n=120)
        relations = resolve_relations(query, tables)
        recursive = RecursiveJoin(query, relations).run(materialize=True)
        binary = BinaryHashJoin(query, relations).run(materialize=True)
        attrs = ("a", "b", "c")
        assert normalized(recursive, attrs) == normalized(binary, attrs)

    def test_generic_join_static_and_dynamic_agree(self):
        query, tables = triangle_setup(n=100, seed=9)
        relations = resolve_relations(query, tables)
        order = total_order(query)
        adapters = build_adapters(query, relations, order, index="sonic")
        dynamic = GenericJoin(query, adapters, order=order,
                              dynamic_seed=True).run(materialize=True)
        adapters2 = build_adapters(query, relations, order, index="sonic")
        static = GenericJoin(query, adapters2, order=order,
                             dynamic_seed=False).run(materialize=True)
        attrs = ("a", "b", "c")
        assert normalized(dynamic, attrs) == normalized(static, attrs)


class TestCursorBalance:
    def test_generic_join_leaves_cursors_at_root(self):
        """The descended-counter ascend logic must pop exactly what it
        pushed: rerunning on the same adapters works only if it does."""
        query = parse_query("R(a,b), S(b,c)")
        r = Relation("R", ("a", "b"), [(1, 10), (2, 20), (2, 30)])
        s = Relation("S", ("b", "c"), [(10, 1), (20, 2), (30, 3)])
        relations = resolve_relations(query, {"R": r, "S": s})
        order = total_order(query)
        adapters = build_adapters(query, relations, order, index="hashtrie")
        driver = GenericJoin(query, adapters, order=order)
        first = driver.run(materialize=True)
        second = driver.run(materialize=True)
        attrs = ("a", "b", "c")
        assert normalized(first, attrs) == normalized(second, attrs)
        assert first.count == second.count

    def test_leapfrog_rerun_is_stable(self):
        query, tables = triangle_setup(n=80, seed=3)
        relations = resolve_relations(query, tables)
        driver = LeapfrogTrieJoin(query, relations)
        first = driver.run(materialize=True)
        second = driver.run(materialize=True)
        attrs = ("a", "b", "c")
        assert normalized(first, attrs) == normalized(second, attrs)

