"""Robin Hood map specifics: PSL invariant, backward-shift deletion."""

from conftest import make_rows
from repro.indexes import RobinHoodTupleIndex
from repro.indexes.robinhood import RobinHoodMap


class TestMapBasics:
    def test_put_get(self):
        table = RobinHoodMap()
        table.put("a", 1)
        table.put("b", 2)
        assert table["a"] == 1
        assert table.get("b") == 2
        assert table.get("c") is None

    def test_overwrite(self):
        table = RobinHoodMap()
        table.put("k", 1)
        table.put("k", 2)
        assert table["k"] == 2
        assert len(table) == 1

    def test_setdefault(self):
        table = RobinHoodMap()
        assert table.setdefault("x", 10) == 10
        assert table.setdefault("x", 20) == 10

    def test_growth(self):
        table = RobinHoodMap(initial_capacity=8)
        for i in range(1000):
            table.put(i, i * 2)
        assert len(table) == 1000
        assert table[123] == 246
        assert table.capacity >= 1024

    def test_items_keys_values(self):
        table = RobinHoodMap()
        for i in range(20):
            table.put(i, -i)
        assert sorted(table.keys()) == list(range(20))
        assert sorted(table.values()) == sorted(-i for i in range(20))
        assert dict(table.items()) == {i: -i for i in range(20)}


class TestRobinHoodInvariant:
    def test_psl_stays_short_at_high_load(self):
        table = RobinHoodMap(initial_capacity=8)
        for i in range(10000):
            table.put(i, i)
        # robin hood keeps the maximum displacement tight; with 0.8 load
        # and displacement balancing it stays in the tens, not hundreds
        assert table.max_psl() < 30


class TestDeletion:
    def test_backward_shift_preserves_lookups(self):
        table = RobinHoodMap(initial_capacity=8)
        for i in range(200):
            table.put(i, i)
        for i in range(0, 200, 3):
            assert table.delete(i)
        for i in range(200):
            expected = i % 3 != 0
            assert (table.get(i) is not None) == expected

    def test_delete_absent(self):
        table = RobinHoodMap()
        assert not table.delete("nope")

    def test_no_tombstone_growth(self):
        table = RobinHoodMap(initial_capacity=64)
        for round_ in range(50):
            table.put(("k", round_), round_)
            table.delete(("k", round_))
        assert len(table) == 0
        # backward shifting leaves no tombstones: the table never grew
        assert table.capacity == 64


class TestTupleIndex:
    def test_wraps_map(self):
        rows = make_rows(3, 150, domain=60, seed=74)
        index = RobinHoodTupleIndex(3)
        index.build(rows)
        assert len(index) == len(rows)
        for row in rows[::11]:
            assert index.contains(row)
