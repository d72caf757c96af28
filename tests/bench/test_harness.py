"""Benchmark harness plumbing tests."""

from repro.bench import (
    BUILD_AND_POINT_INDEXES,
    PREFIX_INDEXES,
    make_sized_index,
    time_callable,
)
from repro.bench.timer import Timing
from repro.core import SonicIndex
from repro.indexes import registered_indexes


class TestMakeSizedIndex:
    def test_sonic_capacity_derived(self):
        index = make_sized_index("sonic", 3, 1000, overallocation=3.0)
        assert isinstance(index, SonicIndex)
        assert index.config.capacity >= 3000

    def test_other_indexes_pass_through(self):
        index = make_sized_index("btree", 3, 1000)
        assert index.arity == 3

    def test_baseline_sets_are_registered(self):
        names = set(registered_indexes())
        assert set(BUILD_AND_POINT_INDEXES) <= names
        assert set(PREFIX_INDEXES) <= names


class TestTimer:
    def test_time_callable(self):
        timing = time_callable(lambda: sum(range(1000)), repeats=3)
        assert isinstance(timing, Timing)
        assert 0 <= timing.best_seconds <= timing.mean_seconds
        assert timing.repeats == 3
