"""Sorted-array trie — the iterator interface Leapfrog Triejoin needs.

The paper's future-work section (§7) observes that the Leapfrog Triejoin
requires "a trie-like interface to an index structure" and that such an
interface "could be provided in a straight-forward manner by sorting the
input".  This module is that interface: the relation's tuples are stored
as one lexicographically sorted array, and a :class:`TrieIterator` exposes
the LFTJ navigation operations (``open``/``up``/``next``/``seek``/``key``)
as binary-search range narrowing over that array.

As a :class:`~repro.indexes.base.TupleIndex` it also supports exact prefix
lookup and O(log n) prefix counting (two binary searches), which makes it a
useful extra baseline for the prefix-operation experiments.
"""

from __future__ import annotations

import bisect
import heapq
import threading
from collections.abc import Iterator
from typing import ClassVar

from repro.errors import QueryError
from repro.indexes.base import (
    PrefixCursor,
    TupleIndex,
    bulk_columns,
    sorted_unique_rows,
)


class SortedTrie(TupleIndex):
    """A static trie view over one sorted tuple array."""

    NAME: ClassVar[str] = "sortedtrie"
    SUPPORTS_BULK_BUILD: ClassVar[bool] = True

    def __init__(self, arity: int):
        super().__init__(arity)
        self._pending: list[tuple] = []
        self._rows: list[tuple] = []
        self._dirty = False
        self._flush_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Build (sort-on-freeze, like any sort-based join preparation)
    # ------------------------------------------------------------------
    def insert(self, row: tuple) -> None:
        # build-phase writes are pre-publication: nothing inserts after
        # the index is handed to an adapter/executor, so no other thread
        # can observe these; only the lazy *flush* (which runs on the
        # shared probe path) needs the lock
        row = self._check_row(row)
        self._pending.append(row)  # repro: noqa[RA703]
        self._dirty = True  # repro: noqa[RA703]

    def build_bulk(self, columns) -> None:
        """Columnar build: one vectorized sort straight into the base array.

        §7's "sorting the input", done as input: the columns are lexsorted
        and deduplicated in numpy and published as the frozen sorted base,
        skipping the per-insert pending list and the merge flush entirely.
        Falls back to per-row inserts when the trie already holds rows
        (the merge flush handles that case correctly) or when the values
        admit no total order.
        """
        arrays = bulk_columns(self.arity, columns)
        rows = None
        if not self._rows and not self._pending:
            rows = sorted_unique_rows(arrays)
        if rows is None:
            self._insert_columns(arrays)
            return
        with self._flush_lock:
            self._rows = rows
            self._pending = []
            self._size = len(rows)
            self._dirty = False

    def _ensure_sorted(self) -> None:
        """Flush pending inserts into the sorted base array.

        The base is already sorted and duplicate-free, so a flush is a
        linear merge of the sorted pending batch into it — not a full
        re-sort of everything ever inserted (this flush sits directly
        under the probe path of every lookup).

        The flush is double-check locked: a session cache can hand one
        generic-join ``sortedtrie`` structure to concurrent executors
        before its first probe ever sorted it, and an unguarded flush
        would let a second reader observe the new ``_rows`` with the
        cleared ``_pending`` *mixed* — losing rows for good.  ``_dirty``
        is cleared last, so the lock-free fast path only skips the lock
        after the merged array is fully published.
        """
        if not self._dirty:
            return
        with self._flush_lock:
            if not self._dirty:
                return  # another thread completed the flush
            pending = sorted(set(self._pending))
            base = self._rows
            if not base:
                merged = pending
            elif not pending:
                merged = base
            else:
                # both inputs sorted & internally duplicate-free: merge
                # keeps global order and makes cross-input duplicates
                # adjacent, so dict.fromkeys drops them in one ordered pass
                merged = list(dict.fromkeys(heapq.merge(base, pending)))
            self._rows = merged
            self._pending = []
            self._size = len(merged)
            self._dirty = False

    @property
    def rows(self) -> list[tuple]:
        self._ensure_sorted()
        return self._rows

    def __len__(self) -> int:
        self._ensure_sorted()
        return self._size

    # ------------------------------------------------------------------
    # TupleIndex operations
    # ------------------------------------------------------------------
    def contains(self, row: tuple) -> bool:
        row = self._check_row(row)
        self._ensure_sorted()
        position = bisect.bisect_left(self._rows, row)
        return position < len(self._rows) and self._rows[position] == row

    def _prefix_range(self, prefix: tuple) -> tuple[int, int]:
        """Half-open row range matching ``prefix`` via two binary searches."""
        low = bisect.bisect_left(self._rows, prefix)
        # the successor of any tuple starting with `prefix` is found by
        # appending an "infinite" sentinel; comparing with a longer tuple
        # whose last real component is bumped does the same without one.
        high = bisect.bisect_right(self._rows, prefix + (_Top(),))
        return low, high

    def prefix_lookup(self, prefix: tuple) -> Iterator[tuple]:
        prefix = self._check_prefix(tuple(prefix))
        self._ensure_sorted()
        low, high = self._prefix_range(prefix)
        for position in range(low, high):
            yield self._rows[position]

    def count_prefix(self, prefix: tuple) -> int:
        prefix = self._check_prefix(tuple(prefix))
        self._ensure_sorted()
        low, high = self._prefix_range(prefix)
        return high - low

    def __iter__(self) -> Iterator[tuple]:
        self._ensure_sorted()
        return iter(self._rows)

    def memory_usage(self) -> int:
        """Design footprint: one flat sorted array of tuple words."""
        self._ensure_sorted()
        return len(self._rows) * 8 * self.arity

    # ------------------------------------------------------------------
    # LFTJ iterator and Generic Join cursor
    # ------------------------------------------------------------------
    def iterator(self) -> "TrieIterator":
        """A fresh LFTJ iterator over the sorted rows."""
        self._ensure_sorted()
        return TrieIterator(self._rows, self.arity)

    def cursor(self) -> "SortedTrieCursor":
        """Native cursor: binary-search range narrowing per descend."""
        return SortedTrieCursor(self)


class _Top:
    """Sentinel comparing greater than every value (for range upper bounds)."""

    def __lt__(self, other) -> bool:
        return False

    def __gt__(self, other) -> bool:
        return True


class TrieIterator:
    """Leapfrog Triejoin's trie cursor over a sorted tuple array.

    The cursor sits at a *depth* (``-1`` = above the root).  At depth ``d``
    it enumerates the distinct values of component ``d`` among rows matching
    the values bound at depths ``0..d-1``.  All operations are binary
    searches over the (depth-scoped) row range, giving the logarithmic
    ``seek`` LFTJ's complexity analysis assumes.
    """

    def __init__(self, rows: list[tuple], arity: int):
        self._rows = rows
        self._arity = arity
        # per-depth state: (low, high) bounds of the current group and the
        # cursor position of the current distinct value
        self._bounds: list[tuple[int, int]] = [(0, len(rows))]
        self._positions: list[int] = []

    @property
    def depth(self) -> int:
        return len(self._positions) - 1

    def open(self) -> None:
        """Descend to the first value of the next component."""
        if self.depth + 1 >= self._arity:
            raise QueryError("TrieIterator.open below the last component")
        low, high = self._bounds[-1]
        if low >= high:
            raise QueryError("TrieIterator.open on an empty range")
        self._positions.append(low)
        self._bounds.append(self._value_range(low))

    def up(self) -> None:
        """Return to the parent component."""
        if not self._positions:
            raise QueryError("TrieIterator.up above the root")
        self._positions.pop()
        self._bounds.pop()

    def key(self):
        """The distinct value the cursor currently points at."""
        if self.at_end():
            raise QueryError("TrieIterator.key at end of range")
        return self._rows[self._positions[-1]][self.depth]

    def at_end(self) -> bool:
        """True when the cursor moved past its group's last value."""
        low, high = self._bounds[-2]
        return self._positions[-1] >= high

    def next(self) -> None:
        """Advance to the next distinct value at this depth."""
        __, high = self._bounds[-2]
        self._positions[-1] = self._bounds[-1][1]  # skip the current group
        if self._positions[-1] < high:
            self._bounds[-1] = self._value_range(self._positions[-1])

    def seek(self, value) -> None:
        """Advance to the first value >= ``value`` (LFTJ's leapfrogging step)."""
        depth = self.depth
        low = self._positions[-1]
        __, high = self._bounds[-2]
        probe = self._rows[low][:depth] + (value,)
        position = bisect.bisect_left(self._rows, probe, low, high)
        self._positions[-1] = position
        if position < high:
            self._bounds[-1] = self._value_range(position)

    def _value_range(self, position: int) -> tuple[int, int]:
        """Row range of the distinct value at ``position`` for this depth."""
        depth = len(self._positions) - 1
        __, high = self._bounds[depth]
        prefix = self._rows[position][:depth + 1]
        end = bisect.bisect_right(self._rows, prefix + (_Top(),), position, high)
        return position, end


class SortedTrieCursor(PrefixCursor):
    """:class:`~repro.indexes.base.PrefixCursor` over the sorted array.

    Each descend is a binary-search range narrowing; ``count`` is the
    (exact) range width, ``child_values`` gallops over distinct values.
    Implements the same contract as the native Sonic cursor.
    """

    __slots__ = ("_rows", "_arity", "_ranges")

    def __init__(self, trie: SortedTrie):
        trie._ensure_sorted()
        self._rows = trie._rows
        self._arity = trie.arity
        self._ranges: list[tuple[int, int]] = [(0, len(self._rows))]

    @property
    def depth(self) -> int:
        return len(self._ranges) - 1

    def try_descend(self, value) -> bool:
        depth = self.depth
        if depth >= self._arity:
            raise QueryError("cursor already at full depth")
        low, high = self._ranges[-1]
        if low >= high:
            return False
        prefix = self._rows[low][:depth] + (value,)
        new_low = bisect.bisect_left(self._rows, prefix, low, high)
        new_high = bisect.bisect_right(self._rows, prefix + (_Top(),),
                                       new_low, high)
        if new_low >= new_high:
            return False
        self._ranges.append((new_low, new_high))
        return True

    def ascend(self) -> None:
        if len(self._ranges) == 1:
            raise QueryError("cursor.ascend above the root")
        self._ranges.pop()

    def child_values(self):
        depth = self.depth
        if depth >= self._arity:
            raise QueryError("cursor at full depth has no children")
        low, high = self._ranges[-1]
        while low < high:
            value = self._rows[low][depth]
            yield value
            low = bisect.bisect_right(self._rows,
                                      self._rows[low][:depth] + (value, _Top()),
                                      low, high)

    def count(self) -> int:
        low, high = self._ranges[-1]
        return high - low
