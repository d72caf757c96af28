"""PrefixCursor contract tests across all cursor implementations.

Every prefix-capable index yields a cursor (native or fallback); all of
them must satisfy the same contract:

* ``try_descend``/``ascend`` navigate the prefix hierarchy and are exact
  at the final depth (inner depths may be optimistic, never pessimistic —
  a genuine child is never rejected);
* ``child_values`` covers every genuine child without duplicates;
* ``count`` is a positive advisory size for non-empty nodes;
* cursors stay valid while descend/ascend cycles interleave with an
  ongoing ``child_values`` iteration (the Generic Join's access pattern).
"""

import pytest

from conftest import make_rows
from repro.bench import make_sized_index
from repro.indexes.base import FallbackCursor

CURSOR_INDEXES = ("sonic", "btree", "art", "hattrie", "hiermap",
                  "hashtrie", "sortedtrie")
NATIVE = {"sonic", "hiermap", "hashtrie", "sortedtrie"}


def build(name, rows, arity=3):
    index = make_sized_index(name, arity, max(len(rows), 1))
    index.build(rows)
    return index


@pytest.fixture(scope="module")
def rows():
    return make_rows(3, 400, domain=12, seed=91)


@pytest.mark.parametrize("name", CURSOR_INDEXES)
class TestCursorContract:
    def test_native_vs_fallback_choice(self, name, rows):
        cursor = build(name, rows).cursor()
        if name in NATIVE:
            assert not isinstance(cursor, FallbackCursor)
        else:
            assert isinstance(cursor, FallbackCursor)

    def test_full_descend_of_stored_tuples(self, name, rows):
        index = build(name, rows)
        cursor = index.cursor()
        for row in rows[::37]:
            for position, value in enumerate(row):
                assert cursor.try_descend(value), (name, row, position)
                assert cursor.depth == position + 1
            for _ in row:
                cursor.ascend()
            assert cursor.depth == 0

    def test_final_depth_is_exact(self, name, rows):
        index = build(name, rows)
        cursor = index.cursor()
        present = set(rows)
        row = rows[0]
        assert cursor.try_descend(row[0])
        assert cursor.try_descend(row[1])
        for final in range(14):
            expected = (row[0], row[1], final) in present
            got = cursor.try_descend(final)
            if got:
                cursor.ascend()
            assert got == expected, (name, final)

    def test_child_values_cover_truth(self, name, rows):
        index = build(name, rows)
        cursor = index.cursor()
        truth0 = {r[0] for r in rows}
        got0 = list(cursor.child_values())
        assert truth0 <= set(got0)
        assert len(got0) == len(set(got0))
        anchor = rows[0]
        cursor.try_descend(anchor[0])
        truth1 = {r[1] for r in rows if r[0] == anchor[0]}
        got1 = list(cursor.child_values())
        assert truth1 <= set(got1), name
        assert len(got1) == len(set(got1))

    def test_count_positive_and_advisory(self, name, rows):
        index = build(name, rows)
        cursor = index.cursor()
        root_count = cursor.count()
        if name == "hashtrie":
            # Umbra's rule: count is the current-level table width, not a
            # subtree size (see HashTrieCursor.count)
            assert root_count == len({r[0] for r in rows})
        else:
            assert root_count >= len(rows) * 0.99
        anchor = rows[0]
        cursor.try_descend(anchor[0])
        assert cursor.count() > 0

    def test_missing_value_rejected_and_state_unchanged(self, name, rows):
        index = build(name, rows)
        cursor = index.cursor()
        assert not cursor.try_descend(424242)
        assert cursor.depth == 0
        assert cursor.try_descend(rows[0][0])

    def test_interleaved_descend_during_child_iteration(self, name, rows):
        """The Generic Join's pattern: descend/ascend inside the child walk."""
        index = build(name, rows)
        cursor = index.cursor()
        seen = []
        for value in cursor.child_values():
            assert cursor.try_descend(value)
            inner = list(cursor.child_values())
            assert inner, (name, value)
            cursor.ascend()
            seen.append(value)
        assert {r[0] for r in rows} <= set(seen)


class TestGenericJoinMatchesAcrossCursorKinds:
    def test_native_and_fallback_agree(self, rows):
        from repro.joins import join
        from repro.storage import Relation

        left = Relation("L", ("a", "b", "c"), rows)
        right = Relation("R", ("c", "d"),
                         {(r[2], r[0]) for r in rows[: len(rows) // 2]})
        counts = set()
        for index in ("sonic", "btree", "hiermap"):
            counts.add(join("L(a,b,c), R(c,d)", {"L": left, "R": right},
                            index=index, engine="tuple").count)
        assert len(counts) == 1
