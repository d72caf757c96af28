"""Binary hash-join pipeline tests."""

import sys

import pytest

from repro.errors import QueryError
from repro.joins import BinaryHashJoin, binary, join, resolve_relations
from repro.planner import parse_query
from repro.storage import Relation


def resolved(query_text, relations):
    query = parse_query(query_text)
    return query, resolve_relations(query, relations)


class TestPipeline:
    def test_two_way(self):
        query, relations = resolved("R(a,b), S(b,c)", {
            "R": Relation("R", ("a", "b"), [(1, 10), (2, 20)]),
            "S": Relation("S", ("b", "c"), [(10, 5), (10, 6)]),
        })
        result = BinaryHashJoin(query, relations).run(materialize=True)
        normalized = {tuple(dict(zip(result.attributes, row))[a]
                            for a in ("a", "b", "c")) for row in result.rows}
        assert normalized == {(1, 10, 5), (1, 10, 6)}

    def test_three_way_chain(self):
        query, relations = resolved("R(a,b), S(b,c), T(c,d)", {
            "R": Relation("R", ("a", "b"), [(1, 2)]),
            "S": Relation("S", ("b", "c"), [(2, 3)]),
            "T": Relation("T", ("c", "d"), [(3, 4), (3, 5)]),
        })
        result = BinaryHashJoin(query, relations).run()
        assert result.count == 2

    def test_self_join_aliases(self):
        edges = Relation("E", ("src", "dst"), [(0, 1), (1, 2), (2, 0), (1, 0)])
        query, relations = resolved("E1=E(a,b), E2=E(b,c), E3=E(c,a)",
                                    {"E1": edges, "E2": edges, "E3": edges})
        result = BinaryHashJoin(query, relations).run()
        assert result.count == 3  # the rotations (0,1,2),(1,2,0),(2,0,1)

    def test_pinned_order(self):
        query, relations = resolved("R(a,b), S(b,c)", {
            "R": Relation("R", ("a", "b"), [(1, 10)]),
            "S": Relation("S", ("b", "c"), [(10, 5)]),
        })
        driver = BinaryHashJoin(query, relations, order=["S", "R"])
        assert driver.order == ["S", "R"]
        assert driver.run().count == 1

    def test_bad_pinned_order_rejected(self):
        query, relations = resolved("R(a,b), S(b,c)", {
            "R": Relation("R", ("a", "b"), [(1, 10)]),
            "S": Relation("S", ("b", "c"), [(10, 5)]),
        })
        with pytest.raises(QueryError):
            BinaryHashJoin(query, relations, order=["R"])

    def test_cross_product_handled(self):
        query, relations = resolved("R(a,b), S(x,y)", {
            "R": Relation("R", ("a", "b"), [(1, 2), (3, 4)]),
            "S": Relation("S", ("x", "y"), [(5, 6), (7, 8), (9, 10)]),
        })
        assert BinaryHashJoin(query, relations).run().count == 6

    def test_single_atom_scan(self):
        query, relations = resolved("R(a,b)", {
            "R": Relation("R", ("a", "b"), [(1, 2), (3, 4)]),
        })
        assert BinaryHashJoin(query, relations).run().count == 2

    def test_repeated_run_does_not_rebuild(self):
        query, relations = resolved("R(a,b), S(b,c)", {
            "R": Relation("R", ("a", "b"), [(1, 10)]),
            "S": Relation("S", ("b", "c"), [(10, 5)]),
        })
        driver = BinaryHashJoin(query, relations)
        driver.run()
        build_time = driver.metrics.build_seconds
        driver.run()
        assert driver.metrics.build_seconds == build_time


class TestOneStagePlan:
    @pytest.mark.parametrize("order", [None, ["R", "S", "T"]],
                             ids=["greedy", "pinned"])
    def test_a_cold_join_plans_its_stages_once(self, monkeypatch, order):
        # the driver's build is the one place the stages are planned
        calls = []
        real = binary.plan_pipeline

        def counted(*args):
            calls.append(args)
            return real(*args)

        # wherever it was imported, so that a second planner shows
        for module in list(sys.modules.values()):
            if getattr(module, "plan_pipeline", None) is real:
                monkeypatch.setattr(module, "plan_pipeline", counted)
        edges = [(0, 1), (1, 2), (2, 0), (0, 2)]
        tables = {name: Relation(name, ("x", "y"), edges)
                  for name in "RST"}
        result = join("R(a,b), S(b,c), T(c,a)", tables, algorithm="binary",
                      binary_order=order)
        assert result.count == 3 and len(calls) == 1


class TestOrderSensitivity:
    def test_bad_order_inflates_intermediates(self):
        """The Fig 1 motivation: binary join cost depends on the order."""
        from repro.data import adversarial_triangle_tables

        tables = adversarial_triangle_tables(200, adversity=1.0, seed=9)
        query, relations = resolved("R(a,b), S(b,c), T(c,a)", tables)

        worst = BinaryHashJoin(query, relations, order=["R", "S", "T"])
        worst_result = worst.run()
        assert worst_result.count >= 1
        assert worst.metrics.intermediate_tuples > \
            50 * max(worst_result.count, 1)
