"""``SonicIndex.fork()``: a private copy that takes inserts on its own.

Two properties carry the session cache's append-aware miss path:

* the original is untouched — whatever the fork absorbs, the original
  keeps answering every §3.1 operation as it did (prepared joins pin it);
* the fork is indistinguishable from a fresh build over the same rows on
  that operation set, including once inserts spill out of their buckets
  and the allocator starts sharing buckets (high load, few buckets),
  where ``count_prefix`` exactness rides on the ``spilled`` / ``shared``
  flags ``insert`` maintains.
"""

import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import SonicConfig, SonicIndex

_tuples3 = st.lists(
    st.tuples(st.integers(0, 9), st.integers(0, 9), st.integers(0, 9)),
    min_size=0, max_size=80,
)
_tuples4 = st.lists(
    st.tuples(*(st.integers(0, 11) for _ in range(4))),
    min_size=0, max_size=80,
)
_tuples2 = st.lists(
    st.tuples(st.integers(0, 25), st.integers(0, 25)),
    min_size=0, max_size=80,
)


def _build(rows, arity, capacity_for, bucket_size, overallocation):
    config = SonicConfig.for_tuples(max(capacity_for, 1),
                                    bucket_size=bucket_size,
                                    overallocation=overallocation)
    index = SonicIndex(arity, config)
    index.build(rows)
    return index


def _dense4(seed):
    rng = random.Random(seed)
    rows = sorted({tuple(rng.randrange(12) for _ in range(4))
                   for _ in range(150)})
    rng.shuffle(rows)
    return rows


def _prefixes(rows, arity):
    """Every prefix of every row, plus one absent key per length."""
    found = {row[:width] for row in rows for width in range(arity + 1)}
    found.update((99,) * width for width in range(1, arity + 1))
    return sorted(found, key=lambda p: (len(p), p))


def _answers(index, prefixes):
    """The §3.1 operation set, as comparable values."""
    return {
        "len": len(index),
        "rows": sorted(index),
        "contains": [index.contains(p) for p in prefixes
                     if len(p) == index.arity],
        "count": [index.count_prefix(p) for p in prefixes],
        "lookup": [sorted(index.prefix_lookup(p)) for p in prefixes],
        "has_prefix": [index.has_prefix(p) for p in prefixes],
        "next": [sorted(index.iter_next_values(p)) for p in prefixes
                 if len(p) < index.arity],
    }


def _check(base_rows, extra, arity, bucket_size, overallocation):
    total = len(set(base_rows) | set(extra))
    base = _build(base_rows, arity, total, bucket_size, overallocation)
    prefixes = _prefixes(list(base_rows) + list(extra), arity)
    before = _answers(base, prefixes)
    memory = base.memory_usage()

    fork = base.fork()
    for row in extra:
        fork.insert(row)

    # the original answers as it did, byte accounting included
    assert _answers(base, prefixes) == before
    assert base.memory_usage() == memory
    # the fork answers as a fresh build over all rows does
    fresh = _build(list(base_rows) + list(extra), arity, total, bucket_size,
                   overallocation)
    assert _answers(fork, prefixes) == _answers(fresh, prefixes)
    assert fork.memory_usage() == memory


@settings(max_examples=60, deadline=None)
@given(base_rows=_tuples3, extra=_tuples3)
# a row already present, a new first-level key and a new leaf under an
# old path in one delta
@example(base_rows=[(1, 1, 1), (1, 2, 1)],
         extra=[(1, 1, 1), (5, 1, 1), (1, 1, 2)])
@example(base_rows=[], extra=[(0, 0, 0)])
def test_fork_matches_fresh_build(base_rows, extra):
    _check(base_rows, extra, arity=3, bucket_size=8, overallocation=2.0)


@settings(max_examples=60, deadline=None)
@given(base_rows=_tuples4, extra=_tuples4)
@example(base_rows=_dense4(1)[:75], extra=_dense4(1)[75:])
def test_fork_matches_fresh_build_under_spills_and_sharing(base_rows, extra):
    # 80 % load, few buckets per level: entries spill into neighbouring
    # buckets and the allocator runs out of fresh ones at the deep levels,
    # where count_prefix must fall back to enumeration to stay exact
    _check(base_rows, extra, arity=4, bucket_size=8, overallocation=1.25)


@settings(max_examples=40, deadline=None)
@given(base_rows=_tuples2, extra=_tuples2)
def test_fork_matches_fresh_build_arity_two(base_rows, extra):
    _check(base_rows, extra, arity=2, bucket_size=4, overallocation=1.2)


def test_high_load_example_really_spills_and_shares():
    # guards the pinned example above against testing the easy regime
    rows = _dense4(1)
    base = _build(rows[:75], 4, len(rows), bucket_size=8, overallocation=1.25)
    fork = base.fork()
    for row in rows[75:]:
        fork.insert(row)
    deep = fork._levels[2]
    assert deep.spilled and deep.shared
    assert not fork._counters_exact_through(3)


def test_exclusive_buckets_follows_the_spill_flags():
    dense = _dense4(1)
    assert not _build(dense, 4, len(dense), 8, 1.25).exclusive_buckets
    # two columns: one hash-addressed level, nothing to spill out of
    pairs = [(a, b) for a in range(5) for b in range(20)]
    assert _build(pairs, 2, len(pairs), 8, 1.2).exclusive_buckets
    # three columns: true until a parent outgrows its eight-slot bucket
    index = _build([(0, b, 0) for b in range(4)], 3, 64, 8, 2.0)
    assert index.exclusive_buckets
    fork = index.fork()
    for b in range(4, 12):
        fork.insert((0, b, 0))
    assert not fork.exclusive_buckets
    assert index.exclusive_buckets


def test_fork_shares_no_level_arrays():
    base = _build([(1, 2, 3), (1, 2, 4)], 3, 4, 8, 2.0)
    fork = base.fork()
    for mine, theirs in zip(base._levels, fork._levels):
        assert mine is not theirs
        for name in mine.__slots__:
            value = getattr(mine, name)
            if isinstance(value, (list, bytearray)):
                assert getattr(theirs, name) is not value
                assert getattr(theirs, name) == value
