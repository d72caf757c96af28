"""Memory tracer tests."""

import pytest

from conftest import tiny_hierarchy
from repro.core import SonicConfig, SonicIndex
from repro.errors import ConfigurationError
from repro.hardware import CacheHierarchy, MemoryTracer


@pytest.fixture
def config():
    return SonicConfig(capacity=256, bucket_size=8)


class TestLayout:
    def test_regions_disjoint_and_aligned(self, config):
        tracer = MemoryTracer(4, config, num_levels=3)
        bases = sorted(tracer._bases.items(), key=lambda item: item[1])
        for (_, base), (_, next_base) in zip(bases, bases[1:]):
            assert base % 64 == 0
            assert next_base > base
        assert tracer.total_bytes > 0

    def test_unknown_region_rejected(self, config):
        tracer = MemoryTracer(4, config, num_levels=2)
        with pytest.raises(ConfigurationError):
            tracer.record(0, "bogus", 0)
        with pytest.raises(ConfigurationError):
            tracer.record(5, "key", 0)


class TestRecording:
    def test_touch_counts(self, config):
        tracer = MemoryTracer(3, config, num_levels=2)
        tracer.record(0, "key", 10)
        tracer.record(0, "key", 11)
        tracer.record(1, "patch_bit", 3, size=1)
        assert tracer.touches_by_region["key"] == 2
        assert tracer.touches_by_region["patch_bit"] == 1
        assert tracer.total_touches() == 3

    def test_keep_trace(self, config):
        tracer = MemoryTracer(3, config, num_levels=2, keep_trace=True)
        tracer.record(0, "key", 0)
        tracer.record(0, "key", 1)
        assert len(tracer.trace) == 2
        assert tracer.trace[0][0] != tracer.trace[1][0]

    def test_reset(self, config):
        tracer = MemoryTracer(3, config, num_levels=2, keep_trace=True,
                              hierarchy=tiny_hierarchy())
        tracer.record(0, "key", 0)
        tracer.reset()
        assert tracer.total_touches() == 0
        assert tracer.trace == []
        assert tracer.hierarchy.stats.total_accesses == 0


class TestEndToEnd:
    def test_sonic_build_drives_the_cache(self):
        config = SonicConfig.for_tuples(500)
        hierarchy = CacheHierarchy()
        index = SonicIndex(3, config)
        index.tracer = MemoryTracer(3, config, index.num_levels,
                                    hierarchy=hierarchy)
        rows = [(i % 40, (i * 7) % 40, i) for i in range(500)]
        index.build(rows)
        assert hierarchy.stats.total_accesses > len(rows)
        assert index.tracer.touches_by_region["key"] > 0

    def test_patch_checks_produce_patch_traffic(self):
        config = SonicConfig.for_tuples(400)
        index = SonicIndex(3, config)
        index.tracer = MemoryTracer(3, config, index.num_levels)
        rows = [(i % 30, (i * 3) % 30, i) for i in range(400)]
        index.build(rows)
        index.force_patch_fraction(1, 1.0)
        index.tracer.reset()
        for row in rows[:100]:
            index.contains(row)
        assert index.tracer.touches_by_region["patch_bit"] > 0
        assert index.tracer.touches_by_region["patch_key"] > 0
