"""The session-scoped index cache: build once, probe many times.

The paper treats ad-hoc index build as part of every WCOJ run (§5.15),
and the cold :func:`repro.joins.join` path keeps that timing semantics.
But the ROADMAP's serving scenario — heavy repeated traffic over
slowly-changing relations — makes per-query rebuilds the dominant wasted
cost.  This cache closes that gap at the **prepare** stage of a
frontier plan, the only kind a session serves: a built columnar trie —
or a sharded plan's shared-memory partitioning of a relation — is stored
under

    ``(relation fingerprint, kind, column permutation, options, key arity)``

where the fingerprint is :meth:`repro.storage.relation.Relation.
fingerprint` — ``(storage identity, version)``.  Mutating a relation
bumps the shared version counter, so every entry built against the old
contents stops matching; no invalidation hooks, no back-pointers from
relations into caches.

A miss after a write rebuilds, and publishing the newer version drops
the older entries of the same storage and spec — they can never be hit
again and would only occupy the byte budget.

The cache also owns its session's
:class:`~repro.indexes.columnar.Dictionary`, so any two cached tries
compare codes; :meth:`~IndexCache.clear` leaves it.

Eviction is LRU under two budgets: an entry-count cap and a byte budget
fed by what each structure reports of itself (``memory_usage()``; a
trie's grows as joins build its levels and probe aids).  Counters
(``cache.hit`` / ``cache.miss`` / ``cache.store`` / ``cache.evict``) go
to the registry the cache was constructed with — a session's registry,
so hit rates survive across runs — and are mirrored into any enabled
per-run observer by the prepare stage.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from repro.indexes.columnar import Dictionary
from repro.obs.metrics import Metrics
from repro.storage.relation import Relation

#: default byte budget: generous for benchmark-scale data, small enough
#: that a long-lived session over many relations actually recycles
DEFAULT_CACHE_BYTES = 256 * 1024 * 1024


def _version_of(key: tuple) -> int:
    return key[0][1]


class CacheStats:
    """Point-in-time cache accounting, returned by :meth:`IndexCache.stats`."""

    __slots__ = ("hits", "misses", "stores", "evictions", "entries", "bytes")

    def __init__(self, hits: int, misses: int, stores: int, evictions: int,
                 entries: int, bytes_: int):
        self.hits = hits
        self.misses = misses
        self.stores = stores
        self.evictions = evictions
        self.entries = entries
        self.bytes = bytes_

    def as_dict(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "evictions": self.evictions,
            "entries": self.entries,
            "bytes": self.bytes,
        }

    def __repr__(self) -> str:
        return (f"CacheStats(hits={self.hits}, misses={self.misses}, "
                f"stores={self.stores}, evictions={self.evictions}, "
                f"entries={self.entries}, bytes={self.bytes})")


class _Entry:
    __slots__ = ("value", "bytes", "fingerprint", "built_depth")

    def __init__(self, value: object, bytes_: int, fingerprint: tuple,
                 built_depth: "int | None" = None):
        self.value = value
        self.bytes = bytes_
        self.fingerprint = fingerprint
        #: columnar tries: how many trie levels were materialized when
        #: the entry was last charged (None for structures that are
        #: whole once built)
        self.built_depth = built_depth


class IndexCache:
    """LRU + byte-budget cache of built columnar tries and shard columns.

    One instance lives inside each :class:`~repro.engine.session.Session`;
    the prepare stage of a frontier plan is the only writer, and it
    publishes only through :meth:`put_if_absent`.  ``max_bytes=0`` (or
    ``max_entries=0``) disables storage entirely: every lookup is a miss
    and nothing is retained, so the prepare stage builds every structure
    fresh, as it does without a cache — the :func:`repro.joins.join`
    cold path passes none.

    **Thread safety.**  Every public operation takes the single internal
    lock, so get / put_if_absent / invalidate / evict are each
    atomic with respect to the LRU order *and* the byte accounting; the
    lock is never held across a structure build (see
    :func:`repro.engine.pipeline.prepare`, which builds outside the
    cache and publishes via :meth:`put_if_absent`).  Counter increments
    happen outside the cache lock — :class:`~repro.obs.metrics.Metrics`
    has its own — keeping the lock-order graph acyclic.
    """

    def __init__(self, max_bytes: int = DEFAULT_CACHE_BYTES,
                 max_entries: "int | None" = None,
                 metrics: "Metrics | None" = None):
        self.max_bytes = max_bytes
        self.max_entries = max_entries
        self.metrics = metrics if metrics is not None else Metrics()
        #: codes for the join columns a columnar trie cannot sort (module
        #: docstring)
        self.dictionary = Dictionary()
        self._lock = threading.Lock()
        self._entries: "OrderedDict[tuple, _Entry]" = OrderedDict()  # repro: shared[lock=_lock]
        self._bytes = 0       # repro: shared[lock=_lock]
        self._evictions = 0   # repro: shared[lock=_lock]
        self._stores = 0      # repro: shared[lock=_lock]

    # ------------------------------------------------------------------
    @property
    def enabled(self) -> bool:
        return self.max_bytes > 0 and (self.max_entries is None
                                       or self.max_entries > 0)

    def key_for(self, relation: Relation, suffix: tuple,
                version: "int | None" = None) -> tuple:
        """Full cache key: the relation's fingerprint + the spec suffix.

        ``version`` keys an explicit version of the relation's storage —
        the one a :meth:`~repro.storage.relation.Relation.snapshot` was
        taken at — instead of whatever it is by now.
        """
        storage_id, current = relation.fingerprint()
        return ((storage_id, current if version is None else version),
                *suffix)

    def get(self, key: tuple) -> "object | None":
        """The cached structure, marking it most-recently-used; else None."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
        if entry is None:
            self.metrics.inc("cache.miss")
            return None
        self.metrics.inc("cache.hit")
        return entry.value

    def put_if_absent(self, key: tuple, value: object, bytes_: int,
                      built_depth: "int | None" = None) -> object:
        """Publish a built structure unless one is already cached.

        The compare-and-swap half of the prepare stage's miss path: the
        build happens outside the lock, so two threads missing on the
        same key both build — whichever publishes second adopts the
        first thread's structure instead of displacing it, and the loser
        is counted as ``cache.race`` (its build was wasted work, not a
        store).  Returns the canonical structure to use.

        A store supersedes every older version of the same storage and
        spec: those entries can never be hit again, so they are dropped
        here (counted as ``cache.evict``) instead of holding bytes until
        LRU reaches them (superseded shard columns are released by their
        finalizer).  By the same rule a publisher that arrives after a
        *newer* version is not stored at all: it keeps its own
        structure, and is counted as ``cache.race`` too.

        ``built_depth`` seeds the depth component
        of a structure that materialises levels as joins descend — a
        columnar trie (see :meth:`upgrade_depth`); structures that are
        whole once built leave it ``None``.
        """
        if not self.enabled:
            return value
        version = _version_of(key)
        stored = False
        dropped = 0
        with self._lock:
            existing = self._entries.get(key)
            if existing is not None:
                self._entries.move_to_end(key)
                value = existing.value
            else:
                others = self._other_versions(key)
                stored = all(_version_of(other) < version for other in others)
                if stored:
                    for other in others:
                        self._drop(other)
                    self._entries[key] = _Entry(value, bytes_, key[0],
                                                built_depth=built_depth)
                    self._bytes += bytes_
                    self._stores += 1
                    dropped = len(others) + self._evict_to_budget()
        if not stored:
            self.metrics.inc("cache.race")
            return value
        self.metrics.inc("cache.store")
        if dropped:
            self.metrics.inc("cache.evict", dropped)
        return value

    def upgrade_depth(self, key: tuple, built_depth: int, bytes_: int) -> bool:
        """Record that a cached structure materialized deeper levels.

        A columnar trie is stored shallow and cheap; when a join
        descends further (or builds a probe aid), its deepen callback reports
        the new depth and the re-estimated byte footprint here, upgrading
        the cached entry **in place** — no re-keying, no duplicate entry.
        No-ops (returning False) when the entry has been evicted/invalidated
        meanwhile or the report is stale: shallower, or as deep and no
        larger (at one depth only aids add bytes); a growing footprint can
        push colder entries out of the byte budget."""
        if not self.enabled:
            return False
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return False
            if entry.built_depth is not None and (
                    entry.built_depth, entry.bytes) >= (built_depth, bytes_):
                return False
            self._bytes += bytes_ - entry.bytes
            entry.bytes = bytes_
            entry.built_depth = built_depth
            evicted = self._evict_to_budget()
        if evicted:
            self.metrics.inc("cache.evict", evicted)
        return True

    def built_depth(self, key: tuple) -> "int | None":
        """The recorded build depth for ``key`` (None when absent or
        whole once built)."""
        with self._lock:
            entry = self._entries.get(key)
            return entry.built_depth if entry is not None else None

    def invalidate_relation(self, relation: Relation) -> int:
        """Drop every entry built from ``relation``'s storage, any version.

        Fingerprint mismatches already keep stale entries from being
        *served*, and a newer version's store drops them; this releases
        their memory before that (used by :meth:`Session.invalidate`).
        Returns the number dropped.
        """
        storage_id = id(relation.rows)
        with self._lock:
            doomed = [key for key, entry in self._entries.items()
                      if entry.fingerprint[0] == storage_id]
            for key in doomed:
                self._drop(key)
        if doomed:
            self.metrics.inc("cache.evict", len(doomed))
        return len(doomed)

    def clear(self) -> None:
        """Drop everything (counters keep their history)."""
        dropped = 0
        with self._lock:
            while self._entries:
                self._drop(next(iter(self._entries)))
                dropped += 1
        if dropped:
            self.metrics.inc("cache.evict", dropped)

    # ------------------------------------------------------------------
    def _other_versions(self, key: tuple) -> list:   # repro: borrows-lock[_lock]
        """Keys of ``key``'s storage and spec suffix at any other version."""
        storage_id, suffix = key[0][0], key[1:]
        return [other for other, entry in self._entries.items()
                if entry.fingerprint[0] == storage_id
                and other[1:] == suffix and other != key]

    def _drop(self, key: tuple) -> None:   # repro: borrows-lock[_lock]
        entry = self._entries.pop(key)
        self._bytes -= entry.bytes
        self._evictions += 1

    def _evict_to_budget(self) -> int:   # repro: borrows-lock[_lock]
        evicted = 0
        while self._entries and (
            self._bytes > self.max_bytes
            or (self.max_entries is not None
                and len(self._entries) > self.max_entries)
        ):
            # LRU: the OrderedDict's head is the coldest entry
            self._drop(next(iter(self._entries)))
            evicted += 1
        return evicted

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: tuple) -> bool:
        with self._lock:
            return key in self._entries

    @property
    def bytes_used(self) -> int:
        with self._lock:
            return self._bytes

    def stats(self) -> CacheStats:
        with self._lock:
            stores = self._stores
            evictions = self._evictions
            entries = len(self._entries)
            bytes_ = self._bytes
        return CacheStats(
            hits=self.metrics.get("cache.hit"),
            misses=self.metrics.get("cache.miss"),
            stores=stores,
            evictions=evictions,
            entries=entries,
            bytes_=bytes_,
        )
