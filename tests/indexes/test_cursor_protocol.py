"""PrefixCursor / TrieIterator edge cases of the runtime protocol.

A failed ``try_descend`` leaves the depth unchanged, an exhausted
``child_values`` walk does not poison the cursor, and a ``seek`` past
the last key parks the iterator ``at_end`` without corrupting the levels
above.  These tests pin that protocol against the live implementations
(one native-cursor index, one fallback-cursor index, one hash-trie).
"""

import pytest

from conftest import make_rows
from repro.bench import make_sized_index
from repro.indexes.sorted_trie import SortedTrie

CURSOR_INDEXES = ("sonic", "btree", "hashtrie")


def build(name, rows, arity=3):
    index = make_sized_index(name, arity, max(len(rows), 1))
    index.build(rows)
    return index


@pytest.fixture(scope="module")
def rows():
    return make_rows(3, 300, domain=10, seed=97)


@pytest.mark.parametrize("name", CURSOR_INDEXES)
class TestCursorEdgeCases:
    def test_empty_index_cursor(self, name):
        cursor = make_sized_index(name, 3, 1).cursor()
        assert list(cursor.child_values()) == []
        assert not cursor.try_descend(0)
        assert cursor.depth == 0

    def test_empty_prefix_enumerates_all_roots(self, name, rows):
        cursor = build(name, rows).cursor()
        got = list(cursor.child_values())
        assert set(got) >= {r[0] for r in rows}
        assert cursor.depth == 0  # enumeration does not move the cursor

    def test_failed_descend_leaves_depth_unchanged(self, name, rows):
        cursor = build(name, rows).cursor()
        missing = max(r[0] for r in rows) + 1000
        assert not cursor.try_descend(missing)
        assert cursor.depth == 0
        # the cursor is still usable after the miss
        assert cursor.try_descend(rows[0][0])
        assert cursor.depth == 1
        cursor.ascend()
        assert cursor.depth == 0

    def test_exhausted_child_walk_is_reusable(self, name, rows):
        cursor = build(name, rows).cursor()
        first = list(cursor.child_values())
        again = list(cursor.child_values())
        assert sorted(first) == sorted(again)
        # and a descend/ascend cycle still balances afterwards
        anchor = rows[0]
        for position, value in enumerate(anchor):
            assert cursor.try_descend(value)
            assert cursor.depth == position + 1
        for _ in anchor:
            cursor.ascend()
        assert cursor.depth == 0

    def test_count_positive_while_descended(self, name, rows):
        cursor = build(name, rows).cursor()
        anchor = rows[0]
        assert cursor.try_descend(anchor[0])
        assert cursor.count() >= 1
        cursor.ascend()


class TestTrieIteratorSeekPastEnd:
    def _iterator(self, rows):
        trie = SortedTrie(2)
        for row in rows:
            trie.insert(row)
        return trie.iterator()

    def test_seek_past_last_key_parks_at_end(self):
        it = self._iterator([(1, 10), (3, 30), (5, 50)])
        it.open()
        it.seek(99)  # beyond the last first-component
        assert it.at_end()
        it.up()  # the level above survives the overshoot

    def test_seek_past_end_then_reuse_above(self):
        it = self._iterator([(1, 10), (1, 20), (3, 30)])
        it.open()
        assert it.key() == 1
        it.open()       # into the second component of key 1
        it.seek(1000)   # exhaust the child level
        assert it.at_end()
        it.up()
        assert it.key() == 1  # parent level still positioned
        it.next()
        assert it.key() == 3
        it.up()

    def test_seek_to_exact_key_is_not_end(self):
        it = self._iterator([(1, 10), (3, 30), (5, 50)])
        it.open()
        it.seek(5)
        assert not it.at_end()
        assert it.key() == 5
        it.next()
        assert it.at_end()
        it.up()
