"""Statistics and join-size estimation tests."""

import pytest

from repro.planner import Statistics
from repro.planner.cardinality import estimate_join_size
from repro.storage import Relation


@pytest.fixture
def stats():
    r = Relation("R", ("a", "b"), [(i, i % 5) for i in range(100)])
    s = Relation("S", ("b", "c"), [(i % 5, i) for i in range(50)])
    return Statistics.collect([r, s])


class TestStatistics:
    def test_cardinalities(self, stats):
        assert stats.cardinality("R") == 100
        assert stats.cardinality("S") == 50
        assert stats.cardinalities() == {"R": 100, "S": 50}

    def test_distinct_counts(self, stats):
        assert stats.distinct("R", "a") == 100
        assert stats.distinct("R", "b") == 5
        assert stats.distinct("S", "b") == 5

    def test_distinct_counts_are_scanned_on_first_use(self, monkeypatch):
        import numpy as np

        scans = []
        unique = np.unique
        monkeypatch.setattr(np, "unique",
                            lambda column: scans.append(1) or unique(column))
        r = Relation("R", ("a", "b"), [(i, i % 5) for i in range(100)])
        stats = Statistics.collect([r])
        assert stats.cardinality("R") == 100 and scans == []
        assert stats.distinct("R", "b") == 5 and len(scans) == 1
        assert stats.distinct("R", "b") == 5 and len(scans) == 1

    def test_unknown_distinct_is_floor_one(self, stats):
        assert stats.distinct("R", "zz") == 1
        assert stats.distinct("nope", "a") == 1


class TestEstimation:
    def test_textbook_formula(self, stats):
        # |R ⋈ S| = 100*50 / max(5,5) = 1000
        estimate = estimate_join_size(100, 50, "R", "S", ["b"], stats)
        assert estimate == pytest.approx(1000)

    def test_cross_product_when_no_join_attrs(self, stats):
        assert estimate_join_size(100, 50, "R", "S", [], stats) == 5000

    def test_multi_attribute_divides_twice(self, stats):
        estimate = estimate_join_size(100, 50, "R", "S", ["b", "c"], stats)
        assert estimate < estimate_join_size(100, 50, "R", "S", ["b"], stats)

    def test_override_distinct(self, stats):
        with_override = estimate_join_size(
            100, 50, "R", "S", ["b"], stats,
            left_distinct_override={"b": 50})
        assert with_override == pytest.approx(100 * 50 / 50)
