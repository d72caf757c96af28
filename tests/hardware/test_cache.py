"""Cache simulator tests."""

import pytest

from conftest import tiny_hierarchy
from repro.errors import ConfigurationError
from repro.hardware import CacheHierarchy, xeon_silver_4114
from repro.hardware.cache import CacheLevel


class TestCacheLevel:
    def test_size_validation(self):
        with pytest.raises(ConfigurationError):
            CacheLevel("L1", 1000, 8, 64)  # not divisible

    def test_hit_after_miss(self):
        level = CacheLevel("L1", 1024, 2, 64)
        assert not level.access(0)
        assert level.access(0)
        assert level.stats.hits == 1
        assert level.stats.misses == 1

    def test_lru_eviction(self):
        level = CacheLevel("L1", 2 * 64, 1, 64)  # 2 sets, direct mapped
        level.access(0)
        level.access(2)   # same set (2 % 2 == 0), evicts 0
        assert not level.access(0)

    def test_associativity_protects(self):
        level = CacheLevel("L1", 4 * 64, 2, 64)  # 2 sets, 2-way
        level.access(0)
        level.access(2)   # same set, second way
        assert level.access(0)
        assert level.access(2)

    def test_lru_order_within_set(self):
        level = CacheLevel("L1", 4 * 64, 2, 64)
        level.access(0)
        level.access(2)
        level.access(0)   # refresh 0
        level.access(4)   # same set: evicts 2 (least recent), not 0
        assert level.access(0)
        assert not level.access(2)


class TestHierarchy:
    def test_miss_fills_all_levels(self):
        hierarchy = tiny_hierarchy()
        hierarchy.access(0)
        assert hierarchy.stats.memory_accesses == 1
        hierarchy.access(0)
        assert hierarchy.stats.level_hits["L1"] == 1

    def test_l2_backstops_l1(self):
        hierarchy = tiny_hierarchy(l1_bytes=128, l2_bytes=8192)
        # touch enough lines to overflow L1 (2 lines) but not L2
        for address in range(0, 64 * 16, 64):
            hierarchy.access(address)
        for address in range(0, 64 * 16, 64):
            hierarchy.access(address)
        assert hierarchy.stats.level_hits["L2"] > 0

    def test_multi_byte_access_spans_lines(self):
        hierarchy = tiny_hierarchy()
        hierarchy.access(60, size=8)  # crosses the 64B boundary
        assert hierarchy.stats.total_accesses == 2

    def test_estimated_cycles_positive(self):
        hierarchy = tiny_hierarchy()
        for address in range(0, 2048, 8):
            hierarchy.access(address)
        assert hierarchy.estimated_cycles() > 0

    def test_reset(self):
        hierarchy = tiny_hierarchy()
        hierarchy.access(0)
        hierarchy.reset()
        assert hierarchy.stats.total_accesses == 0
        assert not hierarchy.levels[0].access(0)  # cold again

    def test_xeon_profile_shapes(self):
        levels = xeon_silver_4114()
        assert [level.name for level in levels] == ["L1", "L2", "L3"]
        assert levels[0].size_bytes == 32 * 1024
        assert levels[2].size_bytes == 25600 * 1024


class TestCacheCliff:
    def test_working_set_cliff(self):
        """The Fig 11 phenomenon: hit rate collapses past the cache size."""
        def hit_rate(working_set_bytes):
            hierarchy = tiny_hierarchy(l1_bytes=4096, l2_bytes=4096 * 4)
            for _ in range(4):
                for address in range(0, working_set_bytes, 64):
                    hierarchy.access(address)
            stats = hierarchy.stats
            return stats.level_hits["L1"] / stats.total_accesses

        inside = hit_rate(2048)
        outside = hit_rate(65536)
        assert inside > 0.7
        assert outside < inside - 0.3
