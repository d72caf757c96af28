"""Sonic is single-allocation: overflow raises instead of rehashing (§3.1)."""

import pytest

from conftest import make_rows
from repro.core import SonicConfig, SonicIndex
from repro.errors import CapacityError


class TestCapacityLimits:
    def test_exact_capacity_fits(self):
        rows = make_rows(3, 64, domain=1000, seed=31)
        index = SonicIndex(3, SonicConfig(capacity=64, bucket_size=8))
        index.build(rows)
        assert len(index) == 64

    def test_overflow_raises_capacity_error(self):
        rows = make_rows(3, 100, domain=1000, seed=32)
        index = SonicIndex(3, SonicConfig(capacity=64, bucket_size=8))
        with pytest.raises(CapacityError):
            index.build(rows)

    def test_error_message_mentions_capacity(self):
        index = SonicIndex(2, SonicConfig(capacity=8, bucket_size=8))
        with pytest.raises(CapacityError, match="capacity"):
            for i in range(100):
                index.insert((i, i))

    def test_duplicates_do_not_consume_capacity(self):
        index = SonicIndex(3, SonicConfig(capacity=8, bucket_size=8))
        for _ in range(100):
            index.insert((1, 2, 3))
        assert len(index) == 1

    def test_index_still_readable_after_overflow(self):
        rows = make_rows(2, 200, domain=5000, seed=33)
        index = SonicIndex(2, SonicConfig(capacity=128, bucket_size=8))
        inserted = []
        with pytest.raises(CapacityError):
            for row in rows:
                index.insert(row)
                inserted.append(row)
        # everything inserted before the failure is still intact
        for row in inserted[:-1]:
            assert index.contains(row)


class TestFullLevelReads:
    """A level at 100 % load: a probe that wraps all the way round without
    a match is a miss to every reader, and an error only to an insert."""

    @pytest.fixture(params=[3, 4])
    def full(self, request):
        arity = request.param
        config = SonicConfig.for_tuples(8, bucket_size=2, overallocation=1.0)
        index = SonicIndex(arity, config)
        for i in range(8):
            index.insert(tuple(range(i, i + arity)))
        assert all(level.used_slots == level.capacity
                   for level in index._levels)
        return index

    def absent_keys(self, index):
        """An absent first component, and an absent second one under a
        present first (probes level 0, then the inner level)."""
        tail = tuple(range(2, index.arity))
        return [(99, 1) + tail, (0, 99) + tail]

    def test_contains_misses(self, full):
        for row in self.absent_keys(full):
            assert row not in full
        assert tuple(range(full.arity)) in full

    def test_count_prefix_is_zero(self, full):
        for row in self.absent_keys(full):
            assert full.count_prefix(row[:2]) == 0
        assert full.count_prefix((99,)) == 0
        assert full.count_prefix((0,)) == 1

    def test_prefix_lookup_is_empty(self, full):
        for row in self.absent_keys(full):
            assert list(full.prefix_lookup(row[:2])) == []
        assert list(full.prefix_lookup((99,))) == []
        assert list(full.prefix_lookup((0,))) == [tuple(range(full.arity))]

    def test_cursor_descend_fails(self, full):
        cursor = full.cursor()
        assert not cursor.try_descend(99)
        assert cursor.try_descend(0)
        assert not cursor.try_descend(99)
        assert cursor.try_descend(1)

    def test_ninth_insert_still_raises(self, full):
        with pytest.raises(CapacityError, match="capacity"):
            full.insert(tuple(range(99, 99 + full.arity)))
        with pytest.raises(CapacityError, match="capacity"):
            full.insert((0, 99) + tuple(range(2, full.arity)))
        assert len(full) == 8
