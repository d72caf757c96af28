"""A columnar trie merged from an older version equals a fresh build.

``ColumnarTrie(delta, base=old)`` is what a session read after a write
builds: the older version's arrays with the appended rows merged in,
level by level, instead of one sort over every row.  It must be the
trie a fresh ``ColumnarTrie`` over the same rows makes, array for array
— at whatever depth the predecessor was built to, with or without its
probe aids, over sets and bags, plain and dictionary-coded columns —
and must leave the predecessor's arrays as they were.  Each case
:func:`~repro.indexes.columnar.mergeable` refuses is pinned by name; the
differential tests lift its size floor, which would refuse every trie
small enough to draw.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import SchemaError
from repro.indexes import columnar
from repro.indexes.columnar import ColumnarTrie, Dictionary, mergeable

#: lifts the size floor: any predecessor is large enough to merge into
ANY_SIZE = mock.patch.object(columnar, "_MERGED_ROWS", 0)


def _columns(rows: list, arity: int) -> tuple:
    return tuple(np.array([row[i] for row in rows], dtype=np.int64)
                 for i in range(arity))


def _arrays(trie: ColumnarTrie) -> dict:
    """Every array and scalar a reader or the cache sees, by name."""
    depth = trie.built_depth
    state = {"built_depth": depth, "len": len(trie), "tuples": trie.tuples,
             "lows": trie.lows, "highs": trie.highs, "spans": trie.spans,
             "weights": trie.weights, "buffer": trie._key,
             "memory_usage": trie.memory_usage()}
    for name in ("values", "indptr", "keys", "codes", "starts"):
        state[name] = getattr(trie, name)[:depth]
    return state


def _assert_equal(merged: ColumnarTrie, fresh: ColumnarTrie) -> None:
    mine, theirs = _arrays(merged), _arrays(fresh)
    assert mine.keys() == theirs.keys()
    for name, value in mine.items():
        other = theirs[name]
        if isinstance(value, list) and name not in ("lows", "highs", "spans"):
            assert len(value) == len(other), name
            for depth, (a, b) in enumerate(zip(value, other)):
                _assert_same_array(a, b, f"{name}[{depth}]")
        elif isinstance(value, np.ndarray) or value is None:
            _assert_same_array(value, other, name)
        else:
            assert value == other, name


def _assert_same_array(a, b, name: str) -> None:
    if a is None or b is None:
        assert a is None and b is None, name
        return
    assert a.dtype == b.dtype, name
    assert np.array_equal(a, b), name


def _add_probe_aids(trie: ColumnarTrie) -> None:
    """Probe every built level with as many rows as it has nodes, which
    decides its aid (a slot map, signatures or none)."""
    for depth in range(trie.built_depth):
        counts = np.diff(trie.indptr[depth])
        parents = (None if depth == 0 else
                   np.repeat(np.arange(len(counts), dtype=np.int64), counts))
        found, nodes = trie.probe(depth, parents, trie.values[depth])
        assert found.all()
        assert np.array_equal(nodes, np.arange(len(trie.values[depth])))
    assert all(aid is not None for aid in trie._aids[:trie.built_depth])


def _frozen(trie: ColumnarTrie) -> list:
    """The bytes of every array the trie holds."""
    arrays = [trie._key, trie.weights, *trie._aids]
    for name in ("values", "indptr", "keys", "codes", "starts"):
        arrays.extend(getattr(trie, name))
    out = []
    for array in arrays:
        if isinstance(array, tuple):
            out.extend(None if a is None else a.tobytes() for a in array)
        else:
            out.append(None if array is None else array.tobytes())
    return out


@st.composite
def merges(draw):
    """``(old rows, delta rows, arity, depth, aids, coded)`` whose delta
    stays inside the old rows' per-column ranges."""
    arity = draw(st.integers(1, 3))
    bag = draw(st.booleans())
    domain = st.tuples(*[st.integers(-3, 6)] * arity)
    old = draw(st.lists(domain, min_size=1, max_size=30,
                        unique=not bag))
    lows = [min(row[i] for row in old) for i in range(arity)]
    highs = [max(row[i] for row in old) for i in range(arity)]
    inside = st.tuples(*[st.integers(low, high)
                         for low, high in zip(lows, highs)])
    delta = draw(st.lists(st.one_of(inside, st.sampled_from(old)),
                          min_size=1, max_size=12))
    if not bag:
        delta = [row for row in dict.fromkeys(delta) if row not in old]
        if not delta:
            delta = [old[0]]
            bag = True
    depth = draw(st.integers(0, arity))
    return old, delta, arity, depth, draw(st.booleans()), draw(st.booleans())


def _coded(rows: list, arity: int, dictionary: Dictionary) -> tuple:
    """Each value as a string, through the dictionary: codes in order of
    first sight, so they scramble the values' order."""
    return tuple(dictionary.encode(np.array(
        [f"v{row[i]}" for row in rows], dtype=object))
        for i in range(arity))


# ten times as many examples under the ``stress`` profile (tests/conftest.py)
@settings(max_examples=240 * settings.default.max_examples // 100,
          deadline=None)
@given(case=merges())
# a delta that opens no parent: keys inserted at every level
@example(case=([(0, 0), (0, 9), (1, 5)], [(0, 4)], 2, 2, True, False))
# a new level-0 node: level 1's parents are renumbered
@example(case=([(0, 0), (2, 2)], [(1, 1)], 2, 2, False, False))
# a node opened only at the middle level (and the leaf below it)
@example(case=([(0, 0, 0), (0, 2, 2), (1, 0, 1)], [(0, 1, 1)], 3, 3,
               False, False))
# a delta row that is an old row: its multiplicity grows
@example(case=([(0, 0), (1, 1), (2, 2)], [(1, 1)], 2, 2, False, False))
def test_a_merged_trie_is_the_fresh_trie(case):
    old_rows, delta_rows, arity, depth, aids, coded = case
    if coded:
        dictionary = Dictionary()
        # every value known up front: a delta code lies in range
        _coded(old_rows + delta_rows, arity, dictionary)
        old = _coded(old_rows, arity, dictionary)
        delta = _coded(delta_rows, arity, dictionary)
    else:
        old, delta = _columns(old_rows, arity), _columns(delta_rows, arity)
    base = ColumnarTrie(old).at_depth(depth)
    if aids:
        _add_probe_aids(base)
    before = _frozen(base)
    with ANY_SIZE:
        admitted = mergeable(base, delta)
    if not admitted:
        # only a delta value outside the old range refuses, and a coded
        # column's codes need not keep the values' range
        assert coded
        assert any(column.min() < low or column.max() > high
                   for column, low, high in zip(delta, base.lows, base.highs))
        return
    merged = ColumnarTrie(delta, base=base)
    fresh = ColumnarTrie(tuple(np.concatenate(pair)
                               for pair in zip(old, delta)))
    # the predecessor is read, never written
    assert _frozen(base) == before
    # built as deep as its predecessor, probe aids undecided
    assert merged.built_depth == depth
    assert merged._aids == [None] * arity
    fresh.at_depth(depth)
    _assert_equal(merged, fresh)
    # deeper levels come from the merged sort buffer as from a fresh one
    merged.at_depth(arity)
    fresh.at_depth(arity)
    _assert_equal(merged, fresh)
    # and the predecessor is still the trie of its own rows
    again = ColumnarTrie(old).at_depth(depth)
    if aids:
        _add_probe_aids(again)
    _assert_equal(base.at_depth(arity), again.at_depth(arity))


def test_a_merge_chain_is_the_fresh_trie():
    # sixty writes, each merged into the last version, read in between
    rng = np.random.default_rng(7)
    rows = rng.integers(0, 40, size=(400, 2))
    trie = ColumnarTrie(tuple(rows.T.copy()))
    for step in range(60):
        trie.at_depth(step % 3)
        delta = rng.integers(0, 40, size=(int(rng.integers(1, 25)), 2))
        columns = tuple(delta.T.copy())
        with ANY_SIZE:
            assert mergeable(trie, columns)
        trie = ColumnarTrie(columns, base=trie)
        rows = np.concatenate((rows, delta))
        fresh = ColumnarTrie(tuple(rows.T.copy())).at_depth(trie.built_depth)
        _assert_equal(trie, fresh)


# ----------------------------------------------------------------------
# what falls back to a fresh build, by name
# ----------------------------------------------------------------------
SQUARE = _columns([(0, 0), (0, 5), (5, 0), (5, 5)], 2)


@pytest.fixture
def any_size():
    with ANY_SIZE:
        yield


def test_no_predecessor_builds_fresh():
    assert not mergeable(None, SQUARE)


def test_a_small_predecessor_builds_fresh():
    # below the floor one sort costs less than the merge's fixed calls
    floor = columnar._MERGED_ROWS
    rows = np.arange(floor, dtype=np.int64)
    small = ColumnarTrie((rows[:-1], rows[:-1]))
    assert not mergeable(small, SQUARE)
    assert mergeable(ColumnarTrie((rows, rows)), SQUARE)


def test_a_lexsort_predecessor_builds_fresh(any_size):
    # the spans' product passes PACK_LIMIT: the rows were lexsorted
    wide = ColumnarTrie(_columns([(0, 0), (2 ** 40, 2 ** 40)], 2))
    assert wide._key is None and wide._sorted is not None
    assert not mergeable(wide, _columns([(1, 1)], 2))


def test_an_empty_predecessor_builds_fresh(any_size):
    empty = ColumnarTrie(_columns([], 2))
    assert not mergeable(empty, _columns([(0, 0)], 2))


@pytest.mark.parametrize("row", [(6, 0), (0, 6), (-1, 0), (0, -1)],
                         ids=["past-hi-0", "past-hi-1", "below-lo-0",
                              "below-lo-1"])
def test_a_delta_value_out_of_range_builds_fresh(row, any_size):
    base = ColumnarTrie(SQUARE)
    assert mergeable(base, _columns([(5, 0)], 2))
    assert not mergeable(base, _columns([(5, 0), row], 2))


def test_a_new_dictionary_code_builds_fresh(any_size):
    dictionary = Dictionary()
    base = ColumnarTrie(_coded([(0, 1), (1, 0)], 2, dictionary))
    # codes 0 and 1 are known; an unseen value gets code 2, past hi
    assert mergeable(base, _coded([(1, 1)], 2, dictionary))
    assert not mergeable(base, _coded([(1, 7)], 2, dictionary))


def test_an_object_delta_builds_fresh(any_size):
    # a join column whose dtype class flipped: the fresh build refuses it
    base = ColumnarTrie(SQUARE)
    flipped = (np.array([0], dtype=object), np.array([0], dtype=np.int64))
    assert not mergeable(base, flipped)
    with pytest.raises(SchemaError, match="int64"):
        ColumnarTrie(flipped)
