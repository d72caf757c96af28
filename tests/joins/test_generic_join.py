"""Generic Join driver tests."""

import pytest

from repro.core.adapter import IndexAdapter
from repro.errors import QueryError
from repro.indexes import BPlusTree
from repro.joins import GenericJoin, resolve_relations
from repro.joins.executor import build_adapters
from repro.planner import parse_query, total_order
from repro.storage import Relation


def make_adapters(query, relations, index="btree"):
    resolved = resolve_relations(query, relations)
    order = total_order(query)
    return build_adapters(query, resolved, order, index=index), order


class TestBasics:
    def test_two_way_join(self):
        query = parse_query("R(a,b), S(b,c)")
        r = Relation("R", ("a", "b"), [(1, 10), (2, 20)])
        s = Relation("S", ("b", "c"), [(10, 100), (10, 200), (30, 300)])
        adapters, order = make_adapters(query, {"R": r, "S": s})
        result = GenericJoin(query, adapters, order=order).run(materialize=True)
        normalized = {tuple(dict(zip(result.attributes, row))[a]
                            for a in ("a", "b", "c"))
                      for row in result.rows}
        assert normalized == {(1, 10, 100), (1, 10, 200)}

    def test_empty_input_empty_output(self):
        query = parse_query("R(a,b), S(b,c)")
        r = Relation("R", ("a", "b"), [])
        s = Relation("S", ("b", "c"), [(1, 2)])
        adapters, order = make_adapters(query, {"R": r, "S": s})
        assert GenericJoin(query, adapters, order=order).run().count == 0

    def test_empty_intersection(self):
        query = parse_query("R(a,b), S(b,c)")
        r = Relation("R", ("a", "b"), [(1, 10)])
        s = Relation("S", ("b", "c"), [(99, 100)])
        adapters, order = make_adapters(query, {"R": r, "S": s})
        assert GenericJoin(query, adapters, order=order).run().count == 0

    def test_missing_adapter_rejected(self):
        query = parse_query("R(a,b), S(b,c)")
        r = Relation("R", ("a", "b"), [(1, 10)])
        adapter = IndexAdapter(r, BPlusTree(2), ("a", "b"))
        with pytest.raises(QueryError):
            GenericJoin(query, {"R": adapter})

    def test_bad_order_rejected(self):
        query = parse_query("R(a,b), S(b,c)")
        relations = {"R": Relation("R", ("a", "b"), [(1, 2)]),
                     "S": Relation("S", ("b", "c"), [(2, 3)])}
        adapters, order = make_adapters(query, relations)
        with pytest.raises(QueryError):
            GenericJoin(query, adapters, order=("a", "b"))


class TestWorstCaseOptimality:
    def test_intermediates_bounded_on_adversarial_triangle(self):
        """The Fig 1 property: GJ's intermediates don't explode."""
        from repro.data import adversarial_triangle_tables
        from repro.joins import BinaryHashJoin

        tables = adversarial_triangle_tables(220, adversity=1.0, seed=7)
        query = parse_query("R(a,b), S(b,c), T(c,a)")
        relations = resolve_relations(query, tables)

        adapters, order = make_adapters(query, tables)
        generic = GenericJoin(query, adapters, order=order)
        generic_result = generic.run()

        binary = BinaryHashJoin(query, relations)
        binary_result = binary.run()

        assert generic_result.count == binary_result.count
        # the star data makes one binary sub-join quadratic: intermediates
        # dwarf the result; GJ stays within a small factor of the output
        assert binary.metrics.intermediate_tuples > 20 * binary_result.count
        assert generic.metrics.intermediate_tuples < \
            binary.metrics.intermediate_tuples / 4

    def test_dynamic_vs_static_seed_same_result(self):
        from repro.data import random_edge_relation

        edges = random_edge_relation(40, 250, seed=8)
        query = parse_query("E1=E(a,b), E2=E(b,c), E3=E(c,a)")
        source = {"E1": edges, "E2": edges, "E3": edges}
        resolved = resolve_relations(query, source)
        order = total_order(query)
        adapters = build_adapters(query, resolved, order, index="btree")
        dynamic = GenericJoin(query, adapters, order=order,
                              dynamic_seed=True).run()
        adapters2 = build_adapters(query, resolved, order, index="btree")
        static = GenericJoin(query, adapters2, order=order,
                             dynamic_seed=False).run()
        assert dynamic.count == static.count


class TestMetrics:
    def test_metrics_populated(self):
        query = parse_query("R(a,b), S(b,c)")
        relations = {"R": Relation("R", ("a", "b"), [(1, 2), (3, 2)]),
                     "S": Relation("S", ("b", "c"), [(2, 5)])}
        adapters, order = make_adapters(query, relations)
        driver = GenericJoin(query, adapters, order=order)
        result = driver.run()
        assert result.metrics.algorithm == "generic_join"
        assert result.metrics.lookups > 0
        assert result.metrics.result_count == result.count == 2
