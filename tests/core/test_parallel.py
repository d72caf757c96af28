"""Parallel Sonic build: concurrency correctness and contention profile."""

import pytest

from conftest import make_rows, matching
from repro.core import ParallelSonicBuilder, SonicConfig, SonicIndex
from repro.errors import ConfigurationError


def parallel_build(rows, arity, num_threads, config):
    index = SonicIndex(arity, config=config)
    builder = ParallelSonicBuilder(index, num_threads=num_threads)
    builder.build(rows)
    return index, builder.contention_profile()


class TestParallelBuildCorrectness:
    @pytest.mark.parametrize("threads", [1, 2, 4, 8])
    def test_parallel_equals_sequential(self, threads):
        rows = make_rows(3, 900, domain=45, seed=51)
        sequential = SonicIndex(3, SonicConfig.for_tuples(len(rows)))
        sequential.build(rows)

        index, profile = parallel_build(
            rows, arity=3, num_threads=threads,
            config=SonicConfig.for_tuples(len(rows)))
        assert len(index) == len(sequential)
        assert sorted(index) == sorted(sequential)
        assert profile["threads"] == float(threads)

    def test_parallel_prefix_queries_correct(self):
        rows = make_rows(4, 600, domain=25, seed=52)
        index, _ = parallel_build(rows, arity=4, num_threads=4,
                                  config=SonicConfig.for_tuples(len(rows)))
        for row in rows[::29]:
            assert sorted(index.prefix_lookup(row[:2])) == matching(rows, row[:2])
            assert index.count_prefix(row[:1]) == len(matching(rows, row[:1]))

    def test_duplicate_rows_across_threads(self):
        # every thread gets the same rows: the index must still dedupe
        rows = make_rows(3, 150, domain=30, seed=53) * 4
        index, _ = parallel_build(rows, arity=3, num_threads=4,
                                  config=SonicConfig.for_tuples(len(set(rows))))
        assert len(index) == len(set(rows))


class TestBuilderConfiguration:
    def test_zero_threads_rejected(self):
        index = SonicIndex(3, SonicConfig(capacity=64))
        with pytest.raises(ConfigurationError):
            ParallelSonicBuilder(index, num_threads=0)

    def test_contention_profile_fields(self):
        rows = make_rows(3, 200, domain=40, seed=54)
        index = SonicIndex(3, SonicConfig.for_tuples(len(rows)))
        builder = ParallelSonicBuilder(index, num_threads=2, granularity=512)
        builder.build(rows)
        profile = builder.contention_profile()
        assert profile["acquisitions"] >= len(rows)
        assert profile["granularity"] == 512.0

    def test_capacity_error_propagates_from_workers(self):
        rows = make_rows(2, 300, domain=5000, seed=55)
        index = SonicIndex(2, SonicConfig(capacity=64, bucket_size=8))
        builder = ParallelSonicBuilder(index, num_threads=4)
        with pytest.raises(Exception):
            builder.build(rows)
