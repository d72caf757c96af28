"""Lazy COLT index building — trie levels materialize on first descent.

Free Join (Wang et al., SIGMOD'23) observes that a WCOJ trie only needs
the levels the join actually descends into: their COLT (column-oriented
lazy trie) builds each level on first touch, so a join that dies at an
early attribute never pays for the deep levels at all.
:class:`LazyTrieAdapter` is that idea as a *build-time* strategy: an
:class:`~repro.engine.ir.IndexSpec` with ``lazy=True`` prepares in O(1),
and the underlying index is bulk-built level-at-a-time the first time a
cursor — or, under the batch engine, the frontier driver — needs that
depth.

**Materialization policy.**  Under the tuple engine the first descent
builds a *truncated* index of exactly the requested depth —
``make_index(kind, depth)`` over the first ``depth`` permuted column
snapshots (``build_bulk`` lexsorts and dedupes, so repeated prefixes
collapse, and the truncated index is exact at its own final depth).  Any
later, deeper request rebuilds at the full arity in one step.  Two
builds bound the total work at roughly twice an eager build, while the
headline case — a join that only ever exercises a prefix of the
attribute order — pays for that prefix only.

Under the batch engine there is no policy here at all: a
:class:`~repro.indexes.columnar.ColumnarTrie` materialises its own
levels on first descent, eager spec or lazy, so the adapter only defers
the trie's construction — the one sort — from prepare to first touch,
and hands every depth request to the trie's own ``at_depth``.  The
relation is sorted once, and a deepen never invalidates a frontier that
is already holding node ids (levels are appended, never renumbered).

**Snapshot pinning.**  The adapter pins the relation's column arrays
at construction time (:meth:`~repro.storage.relation.Relation.snapshot`,
one consistent read).  All levels — whenever they materialize — are
built from that one snapshot, so a concurrent ``relation.extend()`` can
never produce a trie whose levels mix old and new rows: readers either
see the pinned pre-extend state at every depth or (after re-prepare) a
fresh adapter.  Cache invalidation calls :meth:`close`, which detaches
the cache upgrade callback; a reader still holding the adapter keeps
descending into the pinned snapshot safely.

**Thread safety** follows the engine's lock discipline: one internal
lock guards state transitions, the published state is a single
atomically-swapped tuple ``(index, depth)``, and callbacks
(:attr:`on_deepen`, used by the session cache to upgrade a shallow
entry's ``built_depth`` in place) run outside the lock.

Exactness matches the cursor contracts in :mod:`repro.indexes.base`:
inner-depth probes may pass an index's rare false positives, final-depth
probes force the full build and are exact.
"""

from __future__ import annotations

import threading
from collections.abc import Mapping, Sequence

import numpy as np

from repro.indexes.base import PrefixCursor
from repro.indexes.columnar import ColumnarTrie
from repro.indexes.registry import make_index
from repro.joins.results import Stopwatch

#: index kinds whose ``build_bulk`` supports level-at-a-time truncation
#: (columnar lexsort+dedupe builds; RA309 enforces this set on plans)
LAZY_CAPABLE_KINDS = ("sonic", "sortedtrie")


class _Level1Index:
    """The depth-1 materialization: distinct first-column values.

    Sonic indexes need >= 2 columns (a 1-column relation has no prefix
    structure to patch), and even for kinds that allow arity 1 a full
    trie build is overkill for what depth 1 answers: level-0 candidate
    walks, level-1 membership, advisory residual counts.  One
    ``np.unique`` over the pinned first column covers all three, for
    every lazy-capable kind uniformly — exact at its own final depth,
    like any truncated index.
    """

    __slots__ = ("_values", "_members", "_total")

    def __init__(self, column):
        values, counts = np.unique(column, return_counts=True)
        self._values = values
        #: value → residual tuple count (the advisory count_prefix answer)
        self._members = dict(zip(values.tolist(), counts.tolist()))
        self._total = int(len(column))

    def has_prefix(self, prefix: tuple) -> bool:
        return prefix[0] in self._members

    def iter_next_values(self, prefix: tuple):
        return iter(self._values.tolist())

    def count_prefix(self, prefix: tuple) -> int:
        if not prefix:
            return self._total
        return int(self._members.get(prefix[0], 0))

    def memory_usage(self) -> int:
        return int(self._values.nbytes) + 64 * len(self._members)


class LazyTrieAdapter:
    """A drop-in :class:`~repro.indexes.base.TupleIndex` stand-in whose
    levels materialize on first descent.

    Quacks like a built index of the relation's full arity — ``arity``,
    ``cursor()``, ``memory_usage()`` — so
    :class:`~repro.core.adapter.IndexAdapter` and the tuple Generic Join
    use it unchanged; the batch driver asks :meth:`at_depth` for the
    columnar trie instead.
    """

    NAME = "lazy"
    SUPPORTS_PREFIX = True
    SUPPORTS_BULK_BUILD = False
    #: cache invalidation must close() us: a fingerprint bump means the
    #: backing relation changed under the snapshot (see module docstring)
    CLOSE_ON_INVALIDATE = True

    def __init__(self, relation, kind: str,
                 attribute_order: Sequence[str],
                 permutation: Sequence[int],
                 options: "Mapping[str, object] | None" = None,
                 on_deepen=None, snapshot=None):
        if kind not in LAZY_CAPABLE_KINDS and kind != ColumnarTrie.NAME:
            raise ValueError(
                f"index kind {kind!r} has no level-at-a-time build; "
                f"lazy adapters support {LAZY_CAPABLE_KINDS}")
        # the columns every level will ever be built from: one
        # consistent read (the session cache passes the snapshot it
        # keyed this adapter by)
        columns = relation.columns() if snapshot is None else snapshot.columns
        self._columns = tuple(columns[p] for p in permutation)
        self.arity = len(self._columns)
        #: snapshot cardinality (root-level advisory count, no build)
        self.tuple_count = len(self._columns[0]) if self._columns else 0
        self.kind = kind
        self.attribute_order = tuple(attribute_order)
        self._options = dict(options or {})
        self._lock = threading.Lock()
        #: atomically-swapped (inner index | None, built depth)
        self._state: tuple = (None, 0)
        self._pending_ns = 0
        self._closed = False
        #: called (outside the lock) after every deepening build; the
        #: session cache hooks this to upgrade its entry's built_depth
        self.on_deepen = on_deepen

    # ------------------------------------------------------------------
    @property
    def built_depth(self) -> int:
        """How many leading levels are currently materialized."""
        return self._state[1]

    @property
    def closed(self) -> bool:
        return self._closed

    def __len__(self) -> int:
        return self.tuple_count

    # ------------------------------------------------------------------
    def _ensure_depth(self, depth: int):
        """Materialize at least ``depth`` levels; return the inner index.

        Double-checked under the internal lock; the build itself runs
        inside the lock (one canonical build per level set, the same
        serialization the eager prepare path gets from the cache's CAS
        publish), and the deepen callback fires after release.
        """
        state = self._state
        if state[0] is not None and state[1] >= depth:
            return state[0]
        with self._lock:
            inner, built = self._state
            if inner is not None and built >= depth:
                return inner
            t0 = Stopwatch.now_ns()
            if self.kind == ColumnarTrie.NAME:
                # one structure, deepened in place: the trie builds its
                # own levels, this adapter only put off its sort
                index = (ColumnarTrie(self._columns) if inner is None
                         else inner)
                target = index.at_depth(depth).built_depth
                index.take_pending_charge()    # on this adapter's clock
            else:
                # first touch builds exactly the requested depth; any
                # deeper request afterwards jumps straight to the full
                # arity, so an adapter rebuilds at most once (≤ ~2x an
                # eager build) while prefix-only workloads never pay for
                # the deep levels
                target = depth if built == 0 else self.arity
                target = min(max(target, depth), self.arity)
                index, target = self._build_truncated(target)
            self._pending_ns += Stopwatch.now_ns() - t0
            self._state = (index, target)
            callback = self.on_deepen if not self._closed else None
        if callback is not None:
            callback(self)
        return index

    def _build_truncated(self, depth: int):
        """Bulk-build a ``depth``-level index from the pinned snapshot.

        Returns ``(index, actual depth)``: depth 1 uses the dedicated
        :class:`_Level1Index` (Sonic has no arity-1 form); values that
        admit no total order fall back to a full build.
        """
        if depth == 1:
            try:
                return _Level1Index(self._columns[0]), 1
            except TypeError:
                depth = self.arity  # unorderable values: skip truncation
        options = dict(self._options)
        options.pop("sorted", None)
        if self.kind == "sonic":
            from repro.core.config import SonicConfig

            depth = max(depth, 2)  # Sonic indexes >= 2 columns
            config = SonicConfig.for_tuples(
                max(self.tuple_count, 1),
                bucket_size=options.pop("bucket_size", 8),
                overallocation=options.pop("overallocation", 2.0),
            )
            index = make_index("sonic", depth, config=config, **options)
        else:
            index = make_index(self.kind, depth, **options)
        if self.tuple_count:
            index.build_bulk(self._columns[:depth])
        return index, depth

    # ------------------------------------------------------------------
    def take_pending_charge(self) -> float:
        """Drain accumulated materialization time, in seconds.

        The execute stage adds this to ``metrics.build_seconds`` after
        every run, so deferred builds surface exactly where the §5.15
        build-included timing contract expects them — on the execution
        that actually materialized the levels.
        """
        with self._lock:
            pending, self._pending_ns = self._pending_ns, 0
        return pending * 1e-9

    def close(self) -> None:
        """Detach from the cache (idempotent).

        Called by :meth:`~repro.engine.cache.IndexCache.invalidate_relation`
        when the backing relation's fingerprint moves on.  The pinned
        snapshot stays valid — in-flight readers keep their consistent
        pre-mutation view — but no further cache upgrades fire.
        """
        with self._lock:
            self._closed = True
            self.on_deepen = None

    # ------------------------------------------------------------------
    def memory_usage(self) -> int:
        inner = self._state[0]
        if inner is None:
            return 256  # token charge for the unbuilt shell
        reported = inner.memory_usage()
        return reported if reported > 0 else 256

    def cursor(self) -> "LazyCursor":
        return LazyCursor(self)

    def at_depth(self, depth: int) -> ColumnarTrie:
        """The columnar trie with at least ``depth`` levels built (the
        batch driver's read path; ``kind`` is the columnar one).  Depth
        0 still sorts: a trie's length is its distinct rows."""
        return self._ensure_depth(depth)

    def __repr__(self) -> str:
        return (f"LazyTrieAdapter(kind={self.kind!r}, arity={self.arity}, "
                f"built_depth={self.built_depth}, "
                f"tuples={self.tuple_count})")


class LazyCursor(PrefixCursor):
    """Stateless-prefix cursor over a :class:`LazyTrieAdapter`.

    The :class:`~repro.indexes.base.FallbackCursor` pattern — the cursor
    owns only its prefix list and re-addresses the inner index per call —
    which makes an inner-index swap (a concurrent deepen replacing the
    truncated index with the full one) harmless: every
    call fetches the current index at the depth it needs.
    """

    __slots__ = ("_adapter", "_prefix")

    def __init__(self, adapter: LazyTrieAdapter):
        self._adapter = adapter
        self._prefix: list = []

    def try_descend(self, value) -> bool:
        self._prefix.append(value)
        index = self._adapter._ensure_depth(len(self._prefix))
        if index.has_prefix(tuple(self._prefix)):
            return True
        self._prefix.pop()
        return False

    def ascend(self) -> None:
        self._prefix.pop()

    def child_values(self):
        index = self._adapter._ensure_depth(len(self._prefix) + 1)
        return index.iter_next_values(tuple(self._prefix))

    def count(self) -> int:
        if not self._prefix:
            # root: answer from the snapshot without building anything —
            # seed selection at depth 0 must not defeat laziness
            return self._adapter.tuple_count
        index = self._adapter._ensure_depth(len(self._prefix))
        return index.count_prefix(tuple(self._prefix))

    @property
    def depth(self) -> int:
        return len(self._prefix)
