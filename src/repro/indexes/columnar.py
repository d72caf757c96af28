"""The columnar trie — what the batch Generic Join reads.

Free Join's vectorized execution and Worst-Case Optimal Radix Triejoin
(PAPERS.md) carry the whole binding frontier as columns and resolve a
trie level with one sort-based lookup.  That needs a trie whose levels
*are* arrays: Sonic's levels are Python lists (strings and ints share
one layout), so it can only be read one key at a time — the per-key walk
the batch engine used to pay per binding, per run.  A
:class:`ColumnarTrie` is the relation's permuted int64 columns sorted
and deduplicated once, then stored level by level:

* ``values[d]`` — the level-``d`` component of every node, nodes ordered
  by their whole length-``d+1`` prefix.  A node's id is its rank among
  the sorted distinct prefixes of that length, so a trie over the first
  ``d`` columns only (the lazy adapter's truncated build) numbers every
  level it has exactly as the full trie does.
* ``indptr[d]`` — CSR child ranges: the children of level-``d-1`` node
  ``p`` are the level-``d`` nodes ``indptr[d][p]:indptr[d][p+1]``
  (``indptr[0]`` is the root's single range).
* ``keys[d]`` — ``parent_id * span + offset`` per node, ascending
  because nodes are ordered by (parent, value): one ``searchsorted``
  finds the child of any (parent, value) pair.

**Packing rule and its overflow guard.**  ``offset`` is ``value - lo``
and ``span`` is ``hi - lo + 1`` while ``parents * span`` stays below
:data:`PACK_LIMIT`; a level whose values are spread wider than that (or
whose ``hi - lo`` does not fit int64 at all) stores the sorted distinct
values of the level as ``codes[d]`` and packs their dense ranks instead,
at the price of one more ``searchsorted`` per probe.  The row sort makes
the same decision once: all columns packed into one key and sorted with
a single ``np.sort`` when the product of the spans fits, ``np.lexsort``
otherwise.  Both are decided here, at build time, from the data.  A
probe compares packed keys only for values inside ``[lo, hi]`` — an
offset outside ``[0, span)`` would alias another parent's key.

The structure is immutable after construction, so concurrent executors
share one cached trie without a lock.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import chain
from math import prod

import numpy as np

from repro.errors import SchemaError

#: packed keys stay below 2**62: int64 holds 2**63 - 1, and the spare bit
#: means ``parents * span + offset`` cannot wrap for any in-range offset.
#: Measured on the 30k x 2 edge table: one packed ``np.sort`` 0.20 ms,
#: ``np.lexsort`` over the same rows 4.0 ms — hence the packed path
#: whenever the spans allow it.
PACK_LIMIT = 2 ** 62

_EMPTY = np.empty(0, dtype=np.int64)
_ZERO = np.zeros(1, dtype=np.int64)


def _sorted_unique_columns(columns: Sequence[np.ndarray], lows: list,
                           spans: list) -> list:
    """``columns`` as lexicographically sorted, duplicate-free columns."""
    if prod(spans) < PACK_LIMIT:
        key = columns[0] - lows[0]
        for column, low, span in zip(columns[1:], lows[1:], spans[1:]):
            key *= span
            key += column
            key -= low
        key.sort()
        if len(key) > 1:
            keep = np.empty(len(key), dtype=bool)
            keep[0] = True
            np.not_equal(key[1:], key[:-1], out=keep[1:])
            if not keep.all():
                key = key[keep]
            del keep
        out = [None] * len(columns)
        for depth in range(len(columns) - 1, 0, -1):
            out[depth] = key % spans[depth]
            out[depth] += lows[depth]
            key //= spans[depth]
        key += lows[0]
        out[0] = key
        return out
    # lexsort's *last* key is primary, so feed the columns reversed
    order = np.lexsort(tuple(columns[::-1]))
    out = [column[order] for column in columns]
    del order
    if len(out[0]) > 1:
        keep = np.zeros(len(out[0]), dtype=bool)
        keep[0] = True
        for column in out:
            keep[1:] |= column[1:] != column[:-1]
        if not keep.all():
            out = [column[keep] for column in out]
    return out


class ColumnarTrie:
    """Sorted, deduplicated int64 columns as per-level arrays (see module
    docstring).  ``columns`` are already permuted into the atom's
    attribute order; passing only the first ``d`` of them builds the
    truncated trie the lazy adapter starts with.

    Immutable after publication: no field is written once ``__init__``
    returns, so executors on any thread read a cached trie unlocked."""

    NAME = "columnar"

    __slots__ = ("arity", "values", "indptr", "keys", "lows", "highs",
                 "spans", "codes", "_rows")

    def __init__(self, columns: Sequence[np.ndarray]):
        if not columns:
            raise SchemaError("a columnar trie needs at least one column")
        for column in columns:
            if column.dtype != np.int64:
                raise SchemaError(
                    "a columnar trie holds int64 columns, got dtype "
                    f"{column.dtype}")
        self.arity = len(columns)
        self.values: list = []
        self.indptr: list = []
        self.keys: list = []
        self.codes: list = []
        if len(columns[0]) == 0:
            self._rows = 0
            self.lows = [0] * self.arity
            self.highs = [-1] * self.arity
            self.spans = [1] * self.arity
            for depth in range(self.arity):
                self.values.append(_EMPTY)
                self.keys.append(_EMPTY)
                self.codes.append(None)
                # one (empty) range for the root, none below it
                self.indptr.append(np.zeros(2 if depth == 0 else 1,
                                            dtype=np.int64))
            return
        self.lows = [int(column.min()) for column in columns]
        self.highs = [int(column.max()) for column in columns]
        self.spans = [high - low + 1
                      for low, high in zip(self.lows, self.highs)]
        self._build(_sorted_unique_columns(columns, self.lows, self.spans))

    def _build(self, columns: list) -> None:
        """Level arrays from sorted distinct rows, one level at a time;
        each full-length temporary is dropped before the next is made."""
        rows = len(columns[0])
        self._rows = rows
        last = self.arity - 1
        change = None            # row i+1 opens a new node at this level
        starts = _ZERO           # first row of each node of the level above
        for depth in range(self.arity):
            column = columns[depth]
            columns[depth] = None
            indptr = np.empty(len(starts) + 1, dtype=np.int64)
            if depth == last:
                # rows are distinct, so every row is a node of its own
                values, node_starts = column, None
                indptr[:-1] = starts
                indptr[-1] = rows
            else:
                differs = column[1:] != column[:-1]
                if change is None:
                    change = differs
                else:
                    change |= differs
                del differs
                opened = np.flatnonzero(change)
                node_starts = np.empty(len(opened) + 1, dtype=np.int64)
                node_starts[0] = 0
                np.add(opened, 1, out=node_starts[1:])
                del opened
                values = column[node_starts]
                indptr[:-1] = node_starts.searchsorted(starts)
                indptr[-1] = len(node_starts)
            del column
            parents = np.repeat(np.arange(len(starts), dtype=np.int64),
                                np.diff(indptr))
            self.values.append(values)
            self.indptr.append(indptr)
            self._pack_level(depth, values, parents)
            starts = node_starts

    def _pack_level(self, depth: int, values: np.ndarray,
                    parents: np.ndarray) -> None:
        """``keys[depth]`` from each node's value and parent id (the
        root, id 0, is every level-0 node's parent)."""
        parent_count = len(self.indptr[depth]) - 1
        span = self.spans[depth]
        if span >= PACK_LIMIT or parent_count * span >= PACK_LIMIT:
            # dense rank codes: spans as wide as the level has distinct
            # values, whatever their spread
            codes = np.unique(values)
            keys = codes.searchsorted(values)
            span = self.spans[depth] = len(codes)
        else:
            codes = None
            keys = values - self.lows[depth]
        parents *= span
        keys += parents
        self.codes.append(codes)
        self.keys.append(keys)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Distinct stored tuples (distinct prefixes, when truncated)."""
        return self._rows

    def at_depth(self, depth: int) -> "ColumnarTrie":
        """A trie holding at least ``depth`` levels — this one, whole.
        (The lazy adapter answers the same call by building them.)"""
        return self

    def child_ranges(self, depth: int, parents: "np.ndarray | None",
                     ) -> "tuple[np.ndarray, np.ndarray]":
        """``(start, end)`` level-``depth`` node ids below each parent.

        ``parents`` are level-``depth - 1`` node ids; ``None`` at depth 0
        stands for the root and yields its one range.
        """
        indptr = self.indptr[depth]
        if parents is None:
            return indptr[:1], indptr[1:]
        return indptr[parents], indptr[parents + 1]

    def tuple_counts(self, depth: int, nodes: np.ndarray) -> np.ndarray:
        """How many stored tuples extend each level-``depth`` node — the
        paper's ``count_prefix`` for a column of bound prefixes.

        Nodes are ordered by prefix, so a node's descendants at any
        deeper level are one contiguous id range: the CSR ``indptr`` of
        every deeper level carries the range's two ends one level down
        (two gathers per level over ``nodes``, nothing stored), and at
        the leaf level a range's width is its tuple count.
        """
        first, end = nodes, nodes + 1
        for indptr in self.indptr[depth + 1:]:
            first, end = indptr[first], indptr[end]
        return end - first

    def probe(self, depth: int, parents: "np.ndarray | None",
              values: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
        """Find the child of ``parents[i]`` holding ``values[i]``, for all i.

        Returns ``(found, node_ids)``: ``node_ids[i]`` is the level-
        ``depth`` node where ``found[i]``, and meaningless where not.
        ``parents=None`` probes below the root.
        """
        keys = self.keys[depth]
        if keys.size == 0:
            return (np.zeros(values.size, dtype=bool),
                    np.zeros(values.size, dtype=np.int64))
        codes = self.codes[depth]
        if codes is None:
            found = values >= self.lows[depth]
            found &= values <= self.highs[depth]
            wanted = values - self.lows[depth]
        else:
            wanted = codes.searchsorted(values)
            np.minimum(wanted, codes.size - 1, out=wanted)
            found = codes[wanted] == values
        if parents is not None:
            wanted += parents * self.spans[depth]
        node_ids = keys.searchsorted(wanted)
        np.minimum(node_ids, keys.size - 1, out=node_ids)
        found &= keys[node_ids] == wanted
        return found, node_ids

    def memory_usage(self) -> int:
        """Resident bytes: the level arrays' ``nbytes``."""
        arrays = chain(self.values, self.indptr, self.keys, self.codes)
        return sum(array.nbytes for array in arrays if array is not None)

    def __repr__(self) -> str:
        return (f"ColumnarTrie(arity={self.arity}, rows={self._rows}, "
                f"nodes={[len(v) for v in self.values]})")
