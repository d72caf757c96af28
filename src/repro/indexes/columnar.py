"""The columnar trie — what the batch Generic Join reads.

Free Join's vectorized execution and Worst-Case Optimal Radix Triejoin
(PAPERS.md) carry the whole binding frontier as columns and resolve a
trie level with one sort-based lookup.  That needs a trie whose levels
*are* arrays: Sonic's levels are Python lists (strings and ints share
one layout), so it can only be read one key at a time — the per-key walk
the batch engine used to pay per binding, per run.  A
:class:`ColumnarTrie` is the relation's permuted int64 columns sorted
and deduplicated once, and read level by level:

* ``values[d]`` — the level-``d`` component of every node, nodes ordered
  by their whole length-``d+1`` prefix.  A node's id is its rank among
  the sorted distinct prefixes of that length, so a trie over the first
  ``d`` columns only numbers every level it has exactly as the full
  trie does.
* ``indptr[d]`` — CSR child ranges: the children of level-``d-1`` node
  ``p`` are the level-``d`` nodes ``indptr[d][p]:indptr[d][p+1]``
  (``indptr[0]`` is the root's single range).
* ``keys[d]`` — ``parent_id * span + offset`` per node, ascending
  because nodes are ordered by (parent, value): one ``searchsorted``
  finds the child of any (parent, value) pair.
* ``starts[d]`` — the first sorted row of every level-``d`` node, plus
  the row count as a sentinel.  Nodes are ordered by prefix, so a node's
  tuples are the contiguous rows ``starts[d][n]:starts[d][n+1]`` and
  :meth:`~ColumnarTrie.tuple_counts` is two gathers that read nothing
  below ``d``.  (Rows are distinct, so the last level's nodes *are* the
  rows: it keeps no ``starts``, and its ``indptr`` is the ``starts`` of
  the level above, the same array.)

**Bags.**  The duplicate drop counts what it drops: where rows repeat,
``weights[r]`` is the number of input rows sorted before distinct row
``r`` (``weights[-1]``: all of them), so :meth:`~ColumnarTrie.
tuple_counts` counts a bag with two more gathers — Free Join's weight
vector at the trie leaf (PAPERS.md).  Without a repeat it is ``None``.

**Dictionary codes.**  A join only compares values for equality, so a
column the trie cannot sort (strings, floats, integers past int64)
arrives as :class:`Dictionary` codes; ``decoders[d]`` names the
dictionary behind level ``d`` (``None``: plain values).

**Build what the run reads.**  Free Join's COLT builds a trie level the
first time a join touches it; here that is how the structure is made,
not a mode of it.  The constructor does what every answer needs — the
per-column min/max, *one* sort, the duplicate drop — and keeps the
sorted distinct rows as the **sort buffer**: the packed key, or the
lexsorted columns where the spans are too wide to pack.
:meth:`~ColumnarTrie.at_depth` then materialises the levels a reader is
about to descend into, each from its own column — decoded out of the
packed key on the spot (``key // tail % span + low`` with ``tail`` the
product of the deeper spans), so a column nothing descends into is never
decoded — and the buffer is dropped when the last level lands.  A
counting run over a star reads one level of every satellite (the tail is
counted from ``starts``) and so builds one; a materialising or cyclic
run descends everywhere and builds everything, on its first execution,
into the arrays an all-at-once build would have made.

**Packing rule and its overflow guard.**  ``offset`` is ``value - lo``
and ``span`` is ``hi - lo + 1`` while ``parents * span`` stays below
:data:`PACK_LIMIT`; a level whose values are spread wider than that (or
whose ``hi - lo`` does not fit int64 at all) stores the sorted distinct
values of the level as ``codes[d]`` and packs their dense ranks instead,
at the price of one more ``searchsorted`` per probe.  The row sort makes
the same decision once: all columns packed into one key and sorted with
a single ``np.sort`` when the product of the spans fits, ``np.lexsort``
otherwise.  Both are decided from the data.  A probe compares packed
keys only for values inside ``[lo, hi]`` — an offset outside
``[0, span)`` would alias another parent's key.

**Probe aids.**  A probe that misses still pays a binary search.  As
in Free Join's COLT and Worst-Case Optimal Radix Triejoin (PAPERS.md),
a level gets one lookup aid, built under the lock once it has answered
as many probe rows as it has nodes (a read that probes less never pays
for one): a **slot map** ``slots[key] -> node id`` (-1: absent) where
its key space ``parents * span`` is at most 4x its nodes, a probe then
being one gather; else a **bit array** of at most 256 bits a key, one
per key where the key space fits (a clear bit is a miss, a set one a
hit that searches only for its node id), else one per key's hash (the
search confirms a set bit).  The range check stays either way.

**Appends.**  ``ColumnarTrie(delta, base=older)`` sorts only the rows
appended since ``older`` and merges them, one scatter per array, into
each level it built (``keys[d]`` re-packed only below a new parent) and
into the sort buffer of the rest; its probe aids start undecided.  A
fresh build, array for array, wherever :func:`mergeable` lets it run.

**Append-only levels.**  Levels are built under the trie's lock and
published by advancing ``built_depth`` after the level's arrays are in
place; a published level is never rewritten.  A reader that has called
``at_depth(k)`` reads levels ``0..k-1`` without a lock, on any thread,
while another thread appends deeper ones.
"""

from __future__ import annotations

import threading
import time
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


#: a probe-aid bit array's cap, in bits a key: the slot map's 32 bytes
_BITS_A_KEY = 256
#: smaller probes skip the bit test: the search wins up to ~256 rows on
#: exact bits, ~512 on hashed ones, and loses 7x at 8 192 (x86-64)
_BIT_ROWS = 512


def _hashed(keys: np.ndarray, words: int) -> np.ndarray:
    """Each key's bit among ``words`` (a power of two) words' bits."""
    shift = np.uint64(59 - words.bit_length())
    return (keys.view(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
            >> shift).view(np.int64)


def _bit_array(positions: np.ndarray, words: int) -> np.ndarray:
    """``words`` int64 words, bit ``p`` set for each ascending position
    ``p`` (repeats allowed): a word sums its distinct bits, the running
    sum's difference over the word's run, exact even where it wraps."""
    fresh = np.empty(len(positions), dtype=bool)
    fresh[0] = True
    np.not_equal(positions[1:], positions[:-1], out=fresh[1:])
    positions = positions[fresh]
    word = positions >> 6
    sums = np.left_shift(1, positions & 63).cumsum()
    closes = np.empty(len(word), dtype=bool)
    closes[-1] = True
    np.not_equal(word[1:], word[:-1], out=closes[:-1])
    last = closes.nonzero()[0]
    sums = sums[last]
    sums[1:] -= sums[:-1]
    bits = np.zeros(words, dtype=np.int64)
    bits[word[last]] = sums
    return bits


def _weights(keep: np.ndarray) -> "np.ndarray | None":
    """The ``weights`` of sorted rows whose first copies ``keep`` marks, and
    one past the last row (module docstring); ``None`` if none repeats."""
    return None if np.logical_and.reduce(keep) else keep.nonzero()[0]


def _sorted_unique_key(columns: Sequence[np.ndarray], lows: list,
                       spans: list) -> tuple:
    """The rows as one packed key per row, sorted, duplicates dropped —
    and the drop's ``weights``."""
    key = columns[0] - lows[0]
    for column, low, span in zip(columns[1:], lows[1:], spans[1:]):
        key *= span
        key += column
        key -= low
    key.sort()
    keep = np.empty(len(key) + 1, dtype=bool)
    keep[0] = keep[-1] = True
    np.not_equal(key[1:], key[:-1], out=keep[1:-1])
    weights = _weights(keep)
    return (key if weights is None else key[keep[:-1]]), weights


def _sorted_unique_columns(columns: Sequence[np.ndarray]) -> tuple:
    """``columns`` as lexicographically sorted, duplicate-free columns —
    and the drop's ``weights``."""
    # lexsort's *last* key is primary, so feed the columns reversed
    order = np.lexsort(tuple(columns[::-1]))
    out = [column[order] for column in columns]
    del order
    keep = np.zeros(len(out[0]) + 1, dtype=bool)
    keep[0] = keep[-1] = True
    for column in out:
        keep[1:-1] |= column[1:] != column[:-1]
    weights = _weights(keep)
    if weights is not None:
        out = [column[keep[:-1]] for column in out]
    return out, weights


def _insert(array: np.ndarray, place: np.ndarray,
            items: np.ndarray) -> np.ndarray:
    """``array`` with ``items`` at ascending positions ``place`` of the
    result: ``np.insert``'s array, without its Python-level wrapper."""
    out = np.empty(len(array) + len(place), dtype=array.dtype)
    new = np.zeros(len(out), dtype=bool)
    new[place] = True
    out[~new] = array
    out[place] = items
    return out


def _steps(bounds: np.ndarray, size: int, steps: np.ndarray) -> np.ndarray:
    """At each position below ``size``, ``steps[c]``, ``c`` the count of
    ``bounds`` (ascending) at or before it: one repeat, no running sum."""
    edges = np.empty(len(bounds) + 2, dtype=np.int64)
    edges[0], edges[1:-1], edges[-1] = 0, bounds, size
    return steps.repeat(edges[1:] - edges[:-1])


#: smaller tries are built afresh: there a sort and its level builds cost
#: what a merge's fixed numpy calls do.  Per trie (20-row deltas, x86-64)
#: the break-even lies between ~2k rows, where a merge lost in every shape
#: measured, and ~4k, where it won in every one; 6144 is a conservative
#: placeholder above that until reads over 4-6k-row tables are measured
#: end to end
_MERGED_ROWS = 6144


def mergeable(base: "ColumnarTrie | None",
              delta: "Sequence[np.ndarray] | None") -> bool:
    """Whether ``ColumnarTrie(delta, base=base)`` may replace a fresh
    build: not without a ``base``, over a small or lexsorted one, nor for
    a delta value that is no int64 in its level's ``[lo, hi]``."""
    return base is not None and len(base) >= _MERGED_ROWS and bool(
        base._tails) and all(
        column.dtype == np.int64 and low <= np.minimum.reduce(column)
        and np.maximum.reduce(column) <= high
        for column, low, high in zip(delta, base.lows, base.highs))


class ColumnarTrie:
    """Sorted, deduplicated int64 columns read as per-level arrays, with
    the count of every dropped repeat (see module docstring).
    ``columns`` are already permuted into the atom's attribute order.

    Construction sorts; :meth:`at_depth` builds levels.  A reader calls
    ``at_depth(d + 1)`` before it reads level ``d`` through ``values`` /
    ``indptr`` / ``keys`` / ``codes`` / ``starts`` or the methods below
    — the five lists hold :attr:`built_depth` entries, appended under
    the lock and never rewritten, so published levels are read unlocked.
    """

    NAME = "columnar"

    __slots__ = ("arity", "values", "indptr", "keys", "starts", "lows",
                 "highs", "spans", "codes", "tuples", "weights", "decoders",
                 "on_deepen", "_rows", "_key", "_tails", "_sorted", "_built",
                 "_lock", "_pending_ns", "_probed", "_aids", "__weakref__")

    def __init__(self, columns: Sequence[np.ndarray],
                 base: "ColumnarTrie | None" = None):
        if not columns:
            raise SchemaError("a columnar trie needs at least one column")
        for column in columns:
            if column.dtype != np.int64:
                raise SchemaError(
                    "a columnar trie holds int64 columns, got dtype "
                    f"{column.dtype}")
        self.arity = len(columns)
        #: rows built from, repeats included: the size of the bag
        self.tuples = len(columns[0])
        #: prefix sums of the distinct rows' multiplicities (module
        #: docstring); None when no row repeats
        self.weights = None
        #: per level, the :class:`Dictionary` whose codes it holds (None:
        #: int64 values as they are); set by whoever encoded the columns
        self.decoders = (None,) * self.arity
        self.values: list = []    # repro: shared[lock=_lock]
        self.indptr: list = []    # repro: shared[lock=_lock]
        self.keys: list = []      # repro: shared[lock=_lock]
        self.codes: list = []     # repro: shared[lock=_lock]
        self.starts: list = []    # repro: shared[lock=_lock]
        #: levels published so far; advanced last, so a reader that sees
        #: ``d`` finds ``d`` entries in each list above
        self._built = 0           # repro: shared[lock=_lock]
        #: the sort buffer — the sorted distinct packed key, or the
        #: lexsorted columns (each dropped once its level has landed)
        self._key = None          # repro: shared[lock=_lock]
        self._sorted = None       # repro: shared[lock=_lock]
        self._tails: tuple = ()
        self._lock = threading.Lock()
        self._pending_ns = 0      # repro: shared[lock=_lock]
        #: per level, rows probed and the aid, published once: None until
        #: decided, then ``(slots, None)`` or ``(None, bits)``
        self._probed = [0] * self.arity   # repro: shared[lock=_lock]
        self._aids = [None] * self.arity  # repro: shared[lock=_lock]
        #: called (outside the lock) after levels or aids landed; the session
        #: cache hooks this to re-charge its entry
        self.on_deepen = None
        if base is not None:
            with self._lock:
                self._merge(base, columns)
            return
        if len(columns[0]) == 0:
            self._rows = 0
            self.lows = [0] * self.arity
            self.highs = [-1] * self.arity
            self.spans = [1] * self.arity
            # nothing to sort, so nothing to defer
            for depth in range(self.arity):
                self.values.append(_EMPTY)
                self.keys.append(_EMPTY)
                self.codes.append(None)
                # one (empty) range for the root, none below it
                self.indptr.append(np.zeros(2 if depth == 0 else 1,
                                            dtype=np.int64))
                self.starts.append(None if depth == self.arity - 1
                                   else np.zeros(1, dtype=np.int64))
            self._built = self.arity
            return
        self.lows = [int(np.minimum.reduce(column)) for column in columns]
        self.highs = [int(np.maximum.reduce(column)) for column in columns]
        self.spans = [high - low + 1
                      for low, high in zip(self.lows, self.highs)]
        if prod(self.spans) < PACK_LIMIT:
            self._key, self.weights = _sorted_unique_key(
                columns, self.lows, self.spans)
            self._rows = len(self._key)
            #: per level, the product of the deeper levels' spans: the
            #: packed key is the prefix through ``d`` times ``tails[d]``
            #: plus the deeper columns
            self._tails = tuple(prod(self.spans[depth + 1:])
                                for depth in range(self.arity))
        else:
            self._sorted, self.weights = _sorted_unique_columns(columns)
            self._rows = len(self._sorted[0])

    def _merge(self, base: "ColumnarTrie",   # repro: borrows-lock[_lock]
               delta: Sequence[np.ndarray]) -> None:
        """``base``'s rows and then ``delta``'s (module docstring,
        "Appends"), which :func:`mergeable` admits."""
        self.lows, self.highs = list(base.lows), list(base.highs)
        self.spans, self._tails = list(base.spans), base._tails
        self.tuples += base.tuples
        key, weights = _sorted_unique_key(delta, self.lows, self.spans)
        # under base's lock: it may be deepening on another thread, and its
        # last level is decoded in place of its sort buffer
        with base._lock:
            built, buffer = base._built, base._key
            # per built level and delta row: its prefix is old node ``at``
            # (hit) or a new one before it, ``wanted`` its key under old ids
            walk, hit, at = [], None, None
            for depth in range(built):
                prefix = wanted = key // self._tails[depth]
                if depth:
                    wanted = prefix % self.spans[depth]
                    wanted += at * self.spans[depth]
                nodes = base.keys[depth]
                found = nodes.searchsorted(wanted)
                same = nodes.take(found, mode="clip") == wanted
                if depth:
                    # a new parent's children go before old node at's
                    same &= hit
                    found[~hit] = base.indptr[depth][at[~hit]]
                hit, at = same, found
                walk.append((prefix, wanted, hit, at))
            if buffer is not None:
                at = buffer.searchsorted(key)
                hit = buffer.take(at, mode="clip") == key
            fresh = ~hit
            # each new row's place among the merged rows
            placed = at + fresh.cumsum() - fresh
            self._rows = base._rows + len(key) - len(hit.nonzero()[0])
            if buffer is not None:
                # the sort buffer of the unbuilt levels takes the new rows
                self._key = _insert(buffer, placed[fresh], key[fresh])
            if (weights is not None or base.weights is not None
                    or self._rows - base._rows < len(key)):
                # an old row's weight grows by the delta rows above it (a
                # found one sorts at at + 1); a new row's counts all before it
                old = (base.weights if base.weights is not None
                       else np.arange(base._rows + 1, dtype=np.int64))
                new = (weights if weights is not None
                       else np.arange(len(key) + 1, dtype=np.int64))
                self.weights = _insert(
                    old + _steps(at + hit, len(old), new), placed[fresh],
                    (old[at] + new[:-1])[fresh])
            above = np.array([0, self._rows], dtype=np.int64)
            renumbered = False
            counted = np.arange(self._rows - base._rows + 1, dtype=np.int64)
            for depth, (prefix, wanted, hit, at) in enumerate(walk):
                # a new node opens at its first delta row
                born = ~hit
                born[1:] &= prefix[1:] != prefix[:-1]
                born = born.nonzero()[0]
                place = at[born] + np.arange(len(born))
                values = _insert(base.values[depth], place,
                                 prefix[born] % self.spans[depth]
                                 + self.lows[depth])
                if depth == self.arity - 1:
                    node_starts, indptr = None, above
                else:
                    # an old node moves down by the new rows sorted above it
                    shift = _steps((at + hit)[fresh], len(base.starts[depth]),
                                   counted)
                    node_starts = _insert(base.starts[depth] + shift, place,
                                          placed[born])
                    indptr = node_starts.searchsorted(above)
                # where no parent was born the parent ids held, and a new
                # node's key is the one the walk looked for
                self._add_level(depth, values, indptr, node_starts,
                                None if renumbered else _insert(
                                    base.keys[depth], place, wanted[born]))
                above, renumbered = node_starts, len(born) > 0
            self._built = built

    # ------------------------------------------------------------------
    @property
    def built_depth(self) -> int:
        """How many leading levels are materialised."""
        return self._built

    def at_depth(self, depth: int) -> "ColumnarTrie":
        """This trie with at least ``depth`` levels materialised.

        The missing levels are built under the lock, top down (a level's
        ``indptr`` needs the ``starts`` of the one above); the time goes
        to :meth:`take_pending_charge` and :attr:`on_deepen` fires after
        release.
        """
        if self._built >= depth:
            return self
        with self._lock:
            built, depth = self._built, min(depth, self.arity)
            if built >= depth:
                return self
            t0 = time.perf_counter_ns()
            for level in range(built, depth):
                self._build_level(level)
                self._built = level + 1
            self._pending_ns += time.perf_counter_ns() - t0
            callback = self.on_deepen
        if callback is not None:
            callback(self)
        return self

    def _build_level(self, depth: int) -> None:   # repro: borrows-lock[_lock]
        """Append level ``depth``'s arrays, from its own column of the
        sort buffer and the ``starts`` of the level above."""
        rows, last = self._rows, self.arity - 1
        above = (self.starts[depth - 1] if depth
                 else np.array([0, rows], dtype=np.int64))
        key = self._key
        if key is None:
            column = self._sorted[depth]
            self._sorted[depth] = None
        elif depth < last:
            # the whole prefix through this level: its low digit is the
            # level's column, and it changes exactly where a node opens
            column = key // self._tails[depth]
        else:
            column = key
        if depth == last:
            # rows are distinct, so every row is a node of its own
            values, node_starts, indptr = column, None, above
            self._key = self._sorted = None
        else:
            differs = column[1:] != column[:-1]
            if key is None:
                # a row that opens a node one level up opens one here too
                differs[above[1:-1] - 1] = True
            opened = differs.nonzero()[0]
            del differs
            node_starts = np.empty(len(opened) + 2, dtype=np.int64)
            node_starts[0] = 0
            np.add(opened, 1, out=node_starts[1:-1])
            node_starts[-1] = rows
            del opened
            values = column[node_starts[:-1]]
            indptr = node_starts.searchsorted(above)
        del column
        if key is not None:
            # the buffer is done with once the last level is decoded, so
            # that one is decoded in place
            if depth:
                values %= self.spans[depth]
            values += self.lows[depth]
        self._add_level(depth, values, indptr, node_starts)

    def _add_level(self, depth: int, values: np.ndarray,   # repro: borrows-lock[_lock]
                   indptr: np.ndarray, starts: "np.ndarray | None",
                   keys: "np.ndarray | None" = None) -> None:
        """Append level ``depth``: each node's value, the child ranges
        (the root, id 0, is every level-0 node's parent), the ``starts``
        and the ``codes`` and ``keys`` packed from them (unless given)."""
        codes = None
        if keys is None:
            parent_count = len(indptr) - 1
            parents = np.arange(parent_count, dtype=np.int64).repeat(
                indptr[1:] - indptr[:-1])
            span = self.spans[depth]
            if span >= PACK_LIMIT or parent_count * span >= PACK_LIMIT:
                # dense rank codes: spans as wide as the level has distinct
                # values, whatever their spread.  Only the lexsort path
                # gets here (a packed sort key bounds every level's keys),
                # so no decode reads the span this rewrites.
                codes = np.unique(values)
                keys = codes.searchsorted(values)
                span = self.spans[depth] = len(codes)
            else:
                keys = values - self.lows[depth]
            parents *= span
            keys += parents
        self.values.append(values)
        self.indptr.append(indptr)
        self.keys.append(keys)
        self.codes.append(codes)
        self.starts.append(starts)

    def take_pending_charge(self) -> float:
        """Drain the time :meth:`at_depth` spent building, in seconds —
        the execute stage adds it to the run's ``metrics.build_seconds``
        (§5.15: a build is charged to the run that needed it)."""
        if not self._pending_ns:
            # every warm execution asks; one still being built is
            # drained by the next to ask
            return 0.0
        with self._lock:
            pending, self._pending_ns = self._pending_ns, 0
        return pending * 1e-9

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Distinct stored tuples (:attr:`tuples` counts the repeats)."""
        return self._rows

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
        """How many stored tuples, repeats included, extend each
        level-``depth`` node — the paper's ``count_prefix`` for a column
        of bound prefixes.

        A node's tuples are the sorted rows from its own start to the
        next node's (a last-level node is one row): two gathers from
        ``starts[depth]``, then two from ``weights`` when rows repeat,
        whatever lies below (which need not be built).
        """
        starts, weights = self.starts[depth], self.weights
        if starts is None:
            if weights is None:
                return np.ones(len(nodes), dtype=np.int64)
            return weights[nodes + 1] - weights[nodes]
        if weights is None:
            return starts[nodes + 1] - starts[nodes]
        return weights[starts[nodes + 1]] - weights[starts[nodes]]

    def probe(self, depth: int, parents: "np.ndarray | None",
              values: np.ndarray, ids: bool = True) -> tuple:
        """Find the child of ``parents[i]`` holding ``values[i]``, for all i.

        Returns ``(found, node_ids)``: ``node_ids[i]`` is the level-
        ``depth`` node where ``found[i]``, and meaningless where not
        (``None`` when exact bits answered a caller that wants no ``ids``).
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
        span = self.spans[depth]
        if parents is not None:
            wanted += parents * span
        aid = self._aids[depth]
        slots, bits = aid or (None, None)
        if slots is not None:
            # the range check keeps an out-of-range key off the map
            node_ids = slots.take(wanted, mode="clip")
            found &= node_ids >= 0
            return found, node_ids
        if bits is None or values.size < _BIT_ROWS:
            node_ids = keys.searchsorted(wanted)
            np.minimum(node_ids, keys.size - 1, out=node_ids)
            found &= keys[node_ids] == wanted
            if aid is None:
                self._build_aid(depth, values.size)
            return found, node_ids
        # a clear bit is a miss; a set one is a hit, once the search
        # confirms it where the bits are hashed
        hashed = bits.size << 6 < (len(self.indptr[depth]) - 1) * span
        at = _hashed(wanted, bits.size) if hashed else wanted
        words = bits.take(at >> 6, mode="clip")
        words >>= at & 63
        words &= 1
        found &= words.astype(bool)
        if not (ids or hashed):
            return found, None
        rows = found.nonzero()[0]
        wanted = wanted[rows]
        hits = keys.searchsorted(wanted)
        if hashed:
            np.minimum(hits, keys.size - 1, out=hits)
            found[rows] = keys[hits] == wanted
        node_ids = np.zeros(values.size, dtype=np.int64)
        node_ids[rows] = hits
        return found, node_ids

    def _build_aid(self, depth: int, rows: int) -> None:
        """Count ``rows`` answered at ``depth`` without an aid; the probe
        that brings them to the level's node count decides it."""
        with self._lock:
            keys, indptr = self.keys[depth], self.indptr[depth]
            self._probed[depth] += rows
            if self._aids[depth] is not None or self._probed[depth] < len(keys):
                return
            space = (len(indptr) - 1) * self.spans[depth]
            if space <= 4 * keys.size:
                aid = np.full(space, -1, dtype=np.int64), None
                aid[0][keys] = np.arange(keys.size, dtype=np.int64)
            elif space <= _BITS_A_KEY * keys.size:
                aid = None, _bit_array(keys, -(-space // 64))
            else:
                # the largest power of two of words within the cap
                words = 1 << ((_BITS_A_KEY * keys.size).bit_length() - 7)
                at = _hashed(keys, words)
                at.sort()
                aid = None, _bit_array(at, words)
            self._aids[depth] = aid
            callback = self.on_deepen
        if callback is not None:
            callback(self)

    def memory_usage(self) -> int:
        """Resident bytes: what is left of the sort buffer, the weights,
        every materialised level's arrays (one shared by two levels
        once) and the probe aids."""
        built, key, columns = self._built, self._key, self._sorted
        buffer = (key,) if columns is None else tuple(columns)
        arrays = chain(buffer, (self.weights,), self.values[:built],
                       self.indptr[:built], self.keys[:built],
                       self.codes[:built], self.starts[:built],
                       *filter(None, self._aids))
        return sum({id(array): array.nbytes
                    for array in arrays if array is not None}.values())

    def __repr__(self) -> str:
        return (f"ColumnarTrie(arity={self.arity}, rows={self._rows}, "
                f"nodes={[len(v) for v in self.values[:self._built]]}"
                f" of {self.arity} levels)")


class Dictionary:
    """An append-only map from values to int64 codes: one per
    :class:`~repro.engine.session.Session` (its index cache holds it),
    one per cold join.  A code is never reassigned, so tries encoded at
    different times compare codes.  :meth:`encode` takes the lock;
    :meth:`decode` reads the published value array, replaced whole when
    codes are added, and needs none."""

    def __init__(self):
        self._lock = threading.Lock()
        self._codes: dict = {}                        # repro: shared[lock=_lock]
        #: code -> value, replaced whole when codes are added
        self._values = np.empty(0, dtype=object)      # repro: shared[lock=_lock]

    def encode(self, column: np.ndarray) -> np.ndarray:
        """``column``'s values as codes; unseen values get new ones."""
        values = column.tolist()
        with self._lock:
            codes = self._codes
            fresh = [value for value in dict.fromkeys(values)
                     if value not in codes]
            if fresh:
                known = len(codes)
                grown = np.empty(known + len(fresh), dtype=object)
                grown[:known] = self._values
                for code, value in enumerate(fresh, known):
                    codes[value] = code
                    grown[code] = value
                self._values = grown
            return np.fromiter(map(codes.__getitem__, values),
                               dtype=np.int64, count=len(values))

    def decode(self, codes: np.ndarray) -> np.ndarray:
        """The values behind ``codes``, as an object array."""
        return self._values[codes]
