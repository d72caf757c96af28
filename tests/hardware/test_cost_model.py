"""Parallel build / cycle cost model tests (Fig 16 substrate)."""

import pytest

from conftest import tiny_hierarchy
from repro.errors import ConfigurationError
from repro.hardware import CycleCostModel, ParallelBuildModel, granularity_sweep


class TestParallelBuildModel:
    def test_single_thread_baseline(self):
        model = ParallelBuildModel()
        assert model.speedup(1, stripes=8) == pytest.approx(1.0, rel=0.05)

    def test_monotone_within_socket(self):
        model = ParallelBuildModel()
        speedups = [model.speedup(threads, stripes=8)
                    for threads in range(1, 11)]
        assert speedups == sorted(speedups)
        assert speedups[-1] > 5  # near-linear-ish at 10 cores

    def test_numa_cliff_beyond_socket(self):
        """Fig 16's shape: scaling flattens/dips crossing the socket."""
        model = ParallelBuildModel()
        at_10 = model.speedup(10, stripes=8)
        at_20 = model.speedup(20, stripes=8)
        per_thread_10 = at_10 / 10
        per_thread_20 = at_20 / 20
        assert per_thread_20 < per_thread_10 * 0.8

    def test_more_stripes_less_contention(self):
        model = ParallelBuildModel()
        few = model.speedup(16, stripes=1)
        many = model.speedup(16, stripes=64)
        assert many > few

    def test_threads_beyond_cores_capped(self):
        model = ParallelBuildModel()
        assert model.speedup(40, stripes=8) == model.speedup(20, stripes=8)

    def test_build_time_projection(self):
        model = ParallelBuildModel()
        assert model.build_time(10.0, 10, stripes=8) < 10.0 / 4

    def test_validation(self):
        model = ParallelBuildModel()
        with pytest.raises(ConfigurationError):
            model.speedup(0, stripes=8)
        with pytest.raises(ConfigurationError):
            model.speedup(4, stripes=0)


class TestGranularitySweep:
    def test_paper_8192_claim(self):
        """§3.4.2: granularity 8192 is never >30% worse than optimal."""
        model = ParallelBuildModel()
        capacity = 1 << 20
        granularities = [256, 1024, 8192, 65536, capacity]
        for threads in (4, 10, 20):
            sweep = granularity_sweep(model, capacity, granularities, threads)
            best = max(sweep.values())
            assert sweep[8192] >= 0.7 * best, (threads, sweep)

    def test_whole_level_lock_is_bad(self):
        model = ParallelBuildModel()
        capacity = 1 << 20
        sweep = granularity_sweep(model, capacity, [8192, capacity], 16)
        assert sweep[capacity] < sweep[8192]


class TestCycleCostModel:
    def test_cycles_combine_cache_and_alu(self):
        hierarchy = tiny_hierarchy()
        for address in range(0, 1024, 8):
            hierarchy.access(address)
        model = CycleCostModel(arithmetic_per_touch=3.0)
        total = model.cycles(hierarchy, touches=128)
        assert total > hierarchy.estimated_cycles()
        assert model.cycles_per_operation(hierarchy, 128, operations=64) == \
            pytest.approx(total / 64)

    def test_zero_operations_rejected(self):
        model = CycleCostModel()
        with pytest.raises(ConfigurationError):
            model.cycles_per_operation(tiny_hierarchy(), 1, operations=0)
