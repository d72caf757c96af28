"""The Sonic index structure (§3 of the paper).

Sonic stores a ``k``-column tuple across ``k-1`` *levels* (Fig 3).  Each
level is one flat, single-allocation open-addressing array divided into
fixed-size buckets:

* **first level** — a plain hash table over the first attribute: the slot
  is ``hash(a_1) mod capacity``, probed linearly;
* **inner levels** — the parent entry's *next bucket* offset designates a
  bucket; the slot inside it is ``hash(a_i) mod bucket_size``, with linear
  probing that may *spill* into subsequent buckets;
* **last level** — keyed by the second-to-last attribute and storing the
  full tuple alongside it, so the final attribute needs no extra level and
  every remaining false positive is eliminated by payload verification.

Entries at non-last levels carry a *prefix counter* (the number of stored
tuples sharing the path down to this entry — what ``count prefix`` reads)
and the next-bucket offset.

**Patching (§3.3).**  A bucket that receives a spilled entry now mixes
children of different parents; the bucket's *patch bit* is set and the
spilled entry records its parent key in the *patch key* array.  Entries
resident in their own home bucket keep a null patch key — the paper's
Fig 3 example shows exactly this (the spilled ``44`` gets patch key 87,
the resident ``73`` gets the null key 0) — and resolve their parent through
the bucket's *owner* (the parent that the bucket was originally allocated
to).  Lookups therefore accept an entry when its key matches **and** its
effective parent (patch key if set, else bucket owner) equals the probe's
parent; a false positive can still survive when *grandparents* differ
(patch keys replicate only the immediately preceding level, §3.3) and is
eliminated at the last level against the stored tuple.

The structure is deliberately static: levels are allocated once at the
configured capacity and never rehash (§3.1 lists rehashing as a drawback
of hierarchical hash tables).  Overflowing the configured capacity raises
:class:`~repro.errors.CapacityError`.

Instrumentation hooks used by the paper's microarchitectural experiments:

* an optional :class:`~repro.hardware.memtrace.MemoryTracer` receives the
  synthetic address of every key/patch-bit/patch-key/payload touch
  (Figs 10–12 drive a cache simulator with these traces);
* :meth:`SonicIndex.force_patch_fraction` artificially patches a fraction
  of buckets, reproducing the Fig 10/12 setup;
* :meth:`SonicIndex.patch_stats` reports the patched-bucket ratio the
  paper quotes (~10 % at the second level).
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import ClassVar

from repro.core.config import SonicConfig
from repro.core.hashing import hash_key
from repro.errors import CapacityError, ConfigurationError, SchemaError
from repro.indexes.base import (
    PrefixCursor,
    TupleIndex,
    bulk_columns,
    sorted_unique_rows,
)

_NO_OWNER = object()  # bucket not yet allocated to any parent
_NO_PATCH = object()  # entry resident in its home bucket (null patch key)


class _Level:
    """One Sonic level: parallel arrays over ``capacity`` slots.

    ``keys[s] is None`` marks an empty slot (stored keys are ints/strs).
    """

    __slots__ = (
        "index", "is_first", "is_last", "capacity", "bucket_size",
        "num_buckets", "keys", "prefix_count", "next_bucket", "rows",
        "patch_bits", "patch_keys", "bucket_owner", "bucket_free",
        "alloc_frontier", "used_slots", "spilled", "shared",
    )

    def __init__(self, index: int, config: SonicConfig, is_first: bool, is_last: bool):
        self.index = index
        self.is_first = is_first
        self.is_last = is_last
        self.capacity = config.capacity
        self.bucket_size = config.bucket_size
        self.num_buckets = config.num_buckets
        self.keys: list = [None] * self.capacity
        # Counters: inner levels count per-slot subtrees (§3.4.1).  The
        # last level stores one payload per slot, but its *head slots*
        # (the first (key, parent)-matching slot in probe order — stable,
        # since slots never free) carry the per-node tuple count so the
        # join's seed selection stays O(probe) instead of O(chain).
        self.prefix_count = [0] * self.capacity
        self.next_bucket = None if is_last else [0] * self.capacity
        self.rows: list = [None] * self.capacity if is_last else None
        inner = not is_first
        # patch structures exist wherever a designated-bucket probe can
        # spill: every level except the first (the last level keeps them
        # for probe disambiguation even though payloads re-verify).
        self.patch_bits = bytearray(self.num_buckets) if inner else None
        self.patch_keys: list = [_NO_PATCH] * self.capacity if inner else None
        self.bucket_owner: list = [_NO_OWNER] * self.num_buckets if inner else None
        self.bucket_free = [self.bucket_size] * self.num_buckets
        self.alloc_frontier = 0
        self.used_slots = 0
        # merge-possibility markers: probe chains of different parents can
        # only overlap after a spill or once the allocator shares buckets;
        # when neither happened, prefix counters are provably exact.
        self.spilled = False
        self.shared = False


class SonicIndex(TupleIndex):
    """The Sonic hash table (Fig 3): fast build *and* fast prefix lookups."""

    NAME: ClassVar[str] = "sonic"
    SUPPORTS_BULK_BUILD: ClassVar[bool] = True

    def __init__(self, arity: int, config: SonicConfig | None = None,
                 capacity: int | None = None, bucket_size: int | None = None,
                 seed: int | None = None, tracer=None):
        super().__init__(arity)
        if arity < 2:
            raise ConfigurationError(
                "Sonic indexes tuples of >= 2 columns (a 1-column relation "
                "needs no prefix structure; use a hash set)"
            )
        if config is None:
            config = SonicConfig()
        overrides = {}
        if capacity is not None:
            overrides["capacity"] = capacity
        if bucket_size is not None:
            overrides["bucket_size"] = bucket_size
        if seed is not None:
            overrides["seed"] = seed
        if overrides:
            config = SonicConfig(
                capacity=overrides.get("capacity", config.capacity),
                bucket_size=overrides.get("bucket_size", config.bucket_size),
                seed=overrides.get("seed", config.seed),
            )
        self.config = config
        self.tracer = tracer
        self.num_levels = arity - 1
        self._levels = [
            _Level(i, config, is_first=(i == 0), is_last=(i == self.num_levels - 1))
            for i in range(self.num_levels)
        ]
        self._seed = config.seed

    # ------------------------------------------------------------------
    # Tracing helpers (no-ops unless a tracer is attached)
    # ------------------------------------------------------------------
    def _touch(self, level: _Level, region: str, slot: int, size: int = 8) -> None:
        if self.tracer is not None:
            self.tracer.record(level.index, region, slot, size)

    # ------------------------------------------------------------------
    # Insert (§3.4.1, Alg. 2)
    # ------------------------------------------------------------------
    def insert(self, row: tuple) -> None:
        row = self._check_row(row)
        path_slots: list[tuple[_Level, int]] = []

        level = self._levels[0]
        key = row[0]
        if level.is_last:
            # two-column table: the single level is first and last at once
            is_new = self._insert_last(level, self._first_slot(level, key), row)
        else:
            slot, found = self._probe_first(level, key)
            if not found:
                self._claim(level, slot, key)
                level.next_bucket[slot] = self._allocate_bucket(self._levels[1], key)
            path_slots.append((level, slot))
            designated = level.next_bucket[slot]
            parent_key = key
            is_new = self._insert_descend(1, designated, parent_key, row, path_slots)

        if is_new:
            self._size += 1
            for lvl, slot in path_slots:
                lvl.prefix_count[slot] += 1
        return None

    def _insert_descend(self, level_index: int, designated: int, parent_key,
                        row: tuple, path_slots: list) -> bool:
        level = self._levels[level_index]
        key = row[level_index]
        if level.is_last:
            start = designated * level.bucket_size + (
                hash_key(key, self._seed) % level.bucket_size)
            return self._insert_last(level, start, row,
                                     designated=designated, parent_key=parent_key)
        slot, found = self._probe_inner(level, designated, key, parent_key)
        if not found:
            self._claim(level, slot, key, designated=designated, parent_key=parent_key)
            level.next_bucket[slot] = self._allocate_bucket(
                self._levels[level_index + 1], key)
        path_slots.append((level, slot))
        return self._insert_descend(level_index + 1, level.next_bucket[slot],
                                    key, row, path_slots)

    def _insert_last(self, level: _Level, start: int, row: tuple,
                     designated: int | None = None, parent_key=None) -> bool:
        """Find-or-insert the full tuple at the last level; True if new.

        In the two-column case the level doubles as the first level and
        maintains head-slot prefix counters: the first slot in probe order
        holding the key accumulates the key's tuple count (heads are
        stable — slots before a head are occupied forever).
        """
        capacity = level.capacity
        key = row[level.index]
        check_parent = level.bucket_owner is not None
        slot = start % capacity
        head = -1
        for _ in range(capacity):
            if self.tracer is not None:
                self._touch(level, "key", slot)
            existing = level.keys[slot]
            if existing is None:
                level.keys[slot] = key
                level.rows[slot] = row
                self._after_claim(level, slot, designated, parent_key)
                level.prefix_count[head if head >= 0 else slot] += 1
                return True
            if existing == key:
                if head < 0 and (not check_parent or self._parent_matches(
                        level, slot, parent_key)):
                    head = slot
                if self.tracer is not None:
                    self._touch(level, "row", slot, 8 * self.arity)
                if level.rows[slot] == row:
                    return False  # duplicate tuple
            slot = (slot + 1) % capacity
        raise CapacityError(
            f"Sonic level {level.index} full (capacity {capacity}); "
            f"configure a larger capacity/overallocation"
        )

    def _first_slot(self, level: _Level, key) -> int:
        return hash_key(key, self._seed) % level.capacity

    def _probe_first(self, level: _Level, key) -> tuple[int, bool]:
        """Probe the first level for ``key``; (slot, found).

        Not found: ``slot`` is the free slot an insert would claim, or
        -1 after a full wrap of a full level — a plain miss to a reader,
        :class:`~repro.errors.CapacityError` only to :meth:`_claim`."""
        capacity = level.capacity
        slot = self._first_slot(level, key)
        for _ in range(capacity):
            if self.tracer is not None:
                self._touch(level, "key", slot)
            existing = level.keys[slot]
            if existing is None:
                return slot, False
            if existing == key:
                return slot, True
            slot = (slot + 1) % capacity
        return -1, False  # every slot taken, none holds the key

    def _probe_inner(self, level: _Level, designated: int, key,
                     parent_key) -> tuple[int, bool]:
        """Probe an inner level from the designated bucket; (slot, found),
        with :meth:`_probe_first`'s meaning of a slot that is not found."""
        capacity = level.capacity
        bucket_size = level.bucket_size
        slot = designated * bucket_size + hash_key(key, self._seed) % bucket_size
        for _ in range(capacity):
            if self.tracer is not None:
                self._touch(level, "key", slot)
            existing = level.keys[slot]
            if existing is None:
                return slot, False
            if existing == key and self._parent_matches(level, slot, parent_key):
                return slot, True
            slot = (slot + 1) % capacity
        return -1, False  # every slot taken, none holds the key

    def _parent_matches(self, level: _Level, slot: int, parent_key) -> bool:
        bucket = slot // level.bucket_size
        if self.tracer is not None:
            self._touch(level, "patch_bit", bucket, 1)
        if level.patch_bits[bucket]:
            if self.tracer is not None:
                self._touch(level, "patch_key", slot)
            patch = level.patch_keys[slot]
            if patch is not _NO_PATCH:
                return patch == parent_key
        return level.bucket_owner[bucket] == parent_key

    def _claim(self, level: _Level, slot: int, key,
               designated: int | None = None, parent_key=None) -> None:
        if slot < 0:
            raise CapacityError(
                f"Sonic level {level.index} full (capacity {level.capacity}); "
                f"configure a larger capacity/overallocation"
            )
        level.keys[slot] = key
        self._after_claim(level, slot, designated, parent_key)

    def _after_claim(self, level: _Level, slot: int,
                     designated: int | None, parent_key) -> None:
        bucket = slot // level.bucket_size
        level.bucket_free[bucket] -= 1
        level.used_slots += 1
        if level.bucket_owner is None:
            return  # first level: no parent disambiguation needed
        if designated is not None and bucket != designated:
            level.spilled = True
        owner = level.bucket_owner[bucket]
        if owner is _NO_OWNER:
            level.bucket_owner[bucket] = parent_key
        elif owner != parent_key:
            # the bucket now mixes parents: patch it (§3.3)
            level.patch_bits[bucket] = 1
            level.patch_keys[slot] = parent_key

    def _allocate_bucket(self, level: _Level, parent_key) -> int:
        """Reserve a bucket for a new parent entry (§3.4.1's bump allocator).

        Hands out fresh buckets while any remain (keeping patching rare);
        once the frontier is exhausted, the parent key is *hashed* to a
        bucket — sharing is then uniform across the level, so probe chains
        stay short at any fill level, and the patch mechanism disambiguates
        the mixed buckets.
        """
        while level.alloc_frontier < level.num_buckets:
            bucket = level.alloc_frontier
            level.alloc_frontier += 1
            if level.bucket_free[bucket]:
                return bucket
        if level.used_slots >= level.capacity:
            raise CapacityError(
                f"Sonic level {level.index} has no free buckets "
                f"(capacity {level.capacity}); configure a larger capacity"
            )
        level.shared = True
        return hash_key(parent_key, self._seed ^ 0xB0C4E7) % level.num_buckets

    # ------------------------------------------------------------------
    # Columnar bulk build (§3.4.1, amortized across sorted groups)
    # ------------------------------------------------------------------
    def build_bulk(self, columns) -> None:
        """Build from columns: sort once, then insert group-at-a-time.

        The columns (one array per component, pre-permuted into index
        order) are lexsorted and deduplicated with vectorized numpy ops,
        and the rows go in in canonical (sorted) order, which makes every
        run of tuples sharing a key prefix *contiguous*: the root-to-leaf
        probe chain is resolved once per distinct prefix and reused for
        the whole run, where :meth:`insert` re-hashes and re-walks the
        chain for every tuple — including a full duplicate scan of the
        group's probe run.  The resulting structure is byte-identical to
        sequential :meth:`insert` of the same deduplicated rows in sorted
        order: slots are claimed by the exact probes insert would issue,
        and no slot is ever freed during a build, so the cached chain
        state can never go stale within a run.

        Falls back to per-row inserts when a tracer is attached (traces
        must reflect per-insert touches), when the index already holds
        tuples, or when the values admit no total order.
        """
        arrays = bulk_columns(self.arity, columns)
        rows = None
        if self.tracer is None and self._size == 0:
            rows = sorted_unique_rows(arrays)
        if rows is None:
            self._insert_columns(arrays)
            return
        if not rows:
            return

        levels = self._levels
        num_levels = self.num_levels
        last = levels[-1]
        capacity = last.capacity
        keys = last.keys
        stored = last.rows
        counts = last.prefix_count
        check_parent = last.bucket_owner is not None
        seed = self._seed
        # cached chain state for the current prefix: the resolved slot per
        # inner level and the designated child bucket hanging under it
        inner_slots = [0] * (num_levels - 1)
        child_desig = [0] * (num_levels - 1)
        # last-level group state (rows sharing every key component): the
        # stable head slot that accumulates the prefix count, and the slot
        # after the most recent claim, where probing resumes
        lg_head = -1
        lg_next = 0
        lg_desig: "int | None" = None
        lg_parent = None
        prev = None

        for row in rows:
            keep = 0
            if prev is not None:
                while keep < num_levels and row[keep] == prev[keep]:
                    keep += 1
            prev = row
            if keep < num_levels:
                # chain diverged: re-resolve inner levels from the first
                # changed component, then open a new last-level group
                for i in range(keep, num_levels - 1):
                    level = levels[i]
                    key = row[i]
                    if i == 0:
                        slot, found = self._probe_first(level, key)
                        if not found:
                            self._claim(level, slot, key)
                            level.next_bucket[slot] = self._allocate_bucket(
                                levels[1], key)
                    else:
                        designated = child_desig[i - 1]
                        slot, found = self._probe_inner(
                            level, designated, key, row[i - 1])
                        if not found:
                            self._claim(level, slot, key,
                                        designated=designated,
                                        parent_key=row[i - 1])
                            level.next_bucket[slot] = self._allocate_bucket(
                                levels[i + 1], key)
                    inner_slots[i] = slot
                    child_desig[i] = level.next_bucket[slot]
                key = row[last.index]
                if num_levels == 1:
                    lg_desig = None
                    lg_parent = None
                    slot = hash_key(key, seed) % capacity
                else:
                    lg_desig = child_desig[num_levels - 2]
                    lg_parent = row[last.index - 1]
                    slot = (lg_desig * last.bucket_size
                            + hash_key(key, seed) % last.bucket_size)
                # first placement of the group: the full _insert_last walk,
                # tracking the head slot (no duplicate scan — dedupe above
                # guarantees the tuple is new)
                head = -1
                placed = False
                for _ in range(capacity):
                    existing = keys[slot]
                    if existing is None:
                        keys[slot] = key
                        stored[slot] = row
                        self._after_claim(last, slot, lg_desig, lg_parent)
                        lg_head = head if head >= 0 else slot
                        counts[lg_head] += 1
                        lg_next = (slot + 1) % capacity
                        placed = True
                        break
                    if (existing == key and head < 0
                            and (not check_parent or self._parent_matches(
                                last, slot, lg_parent))):
                        head = slot
                    slot = (slot + 1) % capacity
                if not placed:
                    raise CapacityError(
                        f"Sonic level {last.index} full (capacity {capacity}); "
                        f"configure a larger capacity/overallocation"
                    )
            else:
                # same full key prefix as the previous row: chain and group
                # head unchanged, resume probing where the last claim left
                # off (the chain prefix is occupied and immutable)
                key = row[last.index]
                slot = lg_next
                placed = False
                for _ in range(capacity):
                    if keys[slot] is None:
                        keys[slot] = key
                        stored[slot] = row
                        self._after_claim(last, slot, lg_desig, lg_parent)
                        counts[lg_head] += 1
                        lg_next = (slot + 1) % capacity
                        placed = True
                        break
                    slot = (slot + 1) % capacity
                if not placed:
                    raise CapacityError(
                        f"Sonic level {last.index} full (capacity {capacity}); "
                        f"configure a larger capacity/overallocation"
                    )
            self._size += 1
            for i in range(num_levels - 1):
                levels[i].prefix_count[inner_slots[i]] += 1
        return None

    # ------------------------------------------------------------------
    # Lookups (§3.4.3, Alg. 3)
    # ------------------------------------------------------------------
    def contains(self, row: tuple) -> bool:
        row = self._check_row(row)
        for _ in self._lookup(row):
            return True
        return False

    def prefix_lookup(self, prefix: tuple) -> Iterator[tuple]:
        prefix = self._check_prefix(tuple(prefix))
        return self._lookup(prefix)

    def count_prefix(self, prefix: tuple) -> int:
        """Exact matching-tuple count.

        Uses the O(prefix) prefix counters (§3.4.3) whenever they are
        provably exact: always for prefixes of length ≤ 2 (the patch/owner
        check fully disambiguates one level of ancestry), and for longer
        prefixes as long as no intermediate level has ever spilled an entry
        or shared an allocated bucket (without chain overlap, probe paths
        of different ancestries can never merge).  Otherwise it falls back
        to payload-verified enumeration, trading the paper's O(i) bound for
        guaranteed exactness.  :meth:`approx_count_prefix` always reads the
        raw counter, matching the paper's behaviour unconditionally.
        """
        prefix = self._check_prefix(tuple(prefix))
        width = len(prefix)
        if width == 0:
            return self._size
        if width == 1 and self.num_levels == 1:
            # two-column case: head-slot counters are always exact (single
            # level, exact key comparison, duplicate-checked inserts)
            return self._head_count(prefix[0])
        if width <= self.num_levels - 1 and self._counters_exact_through(width):
            return self.approx_count_prefix(prefix)
        count = 0
        for _ in self._lookup(prefix):
            count += 1
        return count

    def _head_count(self, key) -> int:
        """Per-key tuple count from the arity-2 level's head-slot counter."""
        level = self._levels[0]
        capacity = level.capacity
        slot = self._first_slot(level, key)
        for _ in range(capacity):
            existing = level.keys[slot]
            if existing is None:
                return 0
            if existing == key:
                if self.tracer is not None:
                    self._touch(level, "count", slot, 4)
                return level.prefix_count[slot]
            slot = (slot + 1) % capacity
        return 0

    def approx_count_prefix(self, prefix: tuple) -> int:
        """Raw prefix-counter read (the paper's count-prefix, §3.4.3).

        O(len(prefix)).  May overcount when distinct ancestries merged
        through probe-chain overlap (grandparent-level false positives,
        §3.3); never undercounts.  Only defined for prefixes short enough
        to end at a counter-bearing level; longer prefixes are counted by
        scanning the final bucket chain.
        """
        prefix = self._check_prefix(tuple(prefix))
        width = len(prefix)
        if width == 0:
            return self._size
        if width == 1 and self.num_levels == 1:
            return self._head_count(prefix[0])
        if width > self.num_levels - 1:
            count = 0
            for _ in self._lookup(prefix):
                count += 1
            return count
        slot = self._descend_exact(prefix)
        if slot is None:
            return 0
        level = self._levels[width - 1]
        self._touch(level, "count", slot, 4)
        return level.prefix_count[slot]

    def _counters_exact_through(self, width: int) -> bool:
        """Can a counter at level ``width-1`` have absorbed foreign tuples?

        Merging at level *i* requires a probe chain that overlaps a foreign
        bucket, which in turn requires a spill or allocator sharing at that
        level; levels 0 and 1 are immune (key plus immediate parent fully
        identify a length-2 path).
        """
        for level in self._levels[2:width]:
            if level.spilled or level.shared:
                return False
        return True

    def _descend_exact(self, prefix: tuple) -> int | None:
        """Follow ``prefix`` through levels 0..len(prefix)-1; final slot or None.

        Lookup probes replicate insert probes exactly (same start slot,
        same order, same match predicate), so this lands on precisely the
        slot inserts for this path used.
        """
        level = self._levels[0]
        slot, found = self._probe_first(level, prefix[0])
        if not found:
            return None
        parent_key = prefix[0]
        for position in range(1, len(prefix)):
            designated = level.next_bucket[slot]
            level = self._levels[position]
            slot, found = self._probe_inner(level, designated, prefix[position],
                                            parent_key)
            if not found:
                return None
            parent_key = prefix[position]
        return slot

    def _lookup(self, prefix: tuple) -> Iterator[tuple]:
        """Core enumeration: tuples matching ``prefix`` (any length 0..k)."""
        width = len(prefix)
        level = self._levels[0]

        if width == 0:
            # full scan: enumerate every first-level entry
            if level.is_last:
                for slot in range(level.capacity):
                    if level.keys[slot] is not None:
                        yield level.rows[slot]
                return
            for slot in range(level.capacity):
                if level.keys[slot] is not None:
                    yield from self._enumerate(1, level.next_bucket[slot],
                                               (level.keys[slot],), prefix)
            return

        if level.is_last:
            # two-column index: scan the probe chain of the first key
            yield from self._scan_last_first_level(level, prefix)
            return

        slot, found = self._probe_first(level, prefix[0])
        if not found:
            return
        parent_key = prefix[0]
        designated = level.next_bucket[slot]
        # follow the bound part of the prefix through inner levels
        position = 1
        while position < width and position < self.num_levels - 1:
            level = self._levels[position]
            slot, found = self._probe_inner(level, designated, prefix[position],
                                            parent_key)
            if not found:
                return
            parent_key = prefix[position]
            designated = level.next_bucket[slot]
            position += 1
        yield from self._enumerate(position, designated, prefix[:position], prefix)

    def _scan_last_first_level(self, level: _Level, prefix: tuple) -> Iterator[tuple]:
        """Arity-2 case: the first level stores payloads directly."""
        width = len(prefix)
        capacity = level.capacity
        slot = self._first_slot(level, prefix[0])
        for _ in range(capacity):
            if self.tracer is not None:
                self._touch(level, "key", slot)
            existing = level.keys[slot]
            if existing is None:
                return
            if existing == prefix[0]:
                row = level.rows[slot]
                if self.tracer is not None:
                        self._touch(level, "row", slot, 8 * self.arity)
                if row[:width] == prefix:
                    yield row
            slot = (slot + 1) % capacity

    def _enumerate(self, level_index: int, designated: int, path: tuple,
                   prefix: tuple) -> Iterator[tuple]:
        """Enumerate the subtree below a designated bucket (Alg. 3 lines 11-26).

        ``path`` holds the key values bound at levels ``0..level_index-1``
        (prefix components plus keys chosen while enumerating).  At the
        last level every candidate payload is verified against the full
        path — the "stored payload" verification that eliminates any false
        positives surviving the patch checks (§3.3).
        """
        level = self._levels[level_index]
        width = len(prefix)
        parent_key = path[-1]
        if not (level.spilled or level.shared):
            # fast path: the level never spilled an entry nor shared a
            # bucket, so the designated bucket holds exactly this parent's
            # children and nothing else — no patch checks, no re-probing.
            base = designated * level.bucket_size
            bound_key = prefix[level_index] if level_index < width else None
            for slot in range(base, base + level.bucket_size):
                key = level.keys[slot]
                if key is None:
                    continue
                if bound_key is not None and key != bound_key:
                    continue
                if level.is_last:
                    row = level.rows[slot]
                    if self.tracer is not None:
                        self._touch(level, "row", slot, 8 * self.arity)
                    if row[:level_index] == path and row[:width] == prefix:
                        yield row
                else:
                    yield from self._enumerate(level_index + 1,
                                               level.next_bucket[slot],
                                               path + (key,), prefix)
            return
        if level.is_last:
            bound_key = prefix[level_index] if level_index < width else None
            for slot in self._bucket_chain(level, designated):
                key = level.keys[slot]
                if key is None:
                    continue
                if bound_key is not None and key != bound_key:
                    continue
                if not self._parent_matches(level, slot, parent_key):
                    continue
                row = level.rows[slot]
                if self.tracer is not None:
                        self._touch(level, "row", slot, 8 * self.arity)
                if row[:level_index] == path and row[:width] == prefix:
                    yield row
            return
        # Inner level: the chain may contain several slots with the same
        # (key, parent) pair when foreign ancestries merged through probe
        # overlap; only the slot insert's deterministic probe chose is
        # authoritative (descending foreign copies would double-yield), so
        # each distinct key is re-probed once from the designated bucket.
        seen: set = set()
        for slot in self._bucket_chain(level, designated):
            key = level.keys[slot]
            if key is None or key in seen:
                continue
            if not self._parent_matches(level, slot, parent_key):
                continue
            seen.add(key)
            true_slot, found = self._probe_inner(level, designated, key, parent_key)
            if not found:
                continue
            yield from self._enumerate(level_index + 1,
                                       level.next_bucket[true_slot],
                                       path + (key,), prefix)

    def _bucket_chain(self, level: _Level, bucket: int) -> Iterator[int]:
        """Slots possibly holding entries designated to ``bucket``.

        Spilled entries probe linearly from inside the bucket, so they live
        between the bucket's base slot and the first empty slot at or after
        the bucket's *last* slot (no probe can have crossed such a slot —
        the structure never deletes).
        """
        capacity = level.capacity
        base = bucket * level.bucket_size
        last_start = base + level.bucket_size - 1
        slot = base
        for _ in range(capacity):
            yield slot
            if level.keys[slot] is None and (
                    slot >= last_start or slot < base):
                return
            slot = (slot + 1) % capacity

    def __iter__(self) -> Iterator[tuple]:
        return self._lookup(())

    def cursor(self) -> "SonicCursor":
        """Native incremental descent cursor (the Generic Join's probe API).

        Each :meth:`~repro.indexes.base.PrefixCursor.try_descend` is one
        hash probe at one level — the O(1)-per-step cost the paper's
        Alg. 3 assumes — instead of the root-to-leaf re-probe of the
        generic fallback.  Inner-depth descents may accept grandparent-
        level false positives (§3.3); the final depth verifies against
        the stored payload, so join results remain exact.
        """
        return SonicCursor(self)

    # ------------------------------------------------------------------
    # Patch instrumentation (Figs 10 & 12, §5.13)
    # ------------------------------------------------------------------
    def force_patch_fraction(self, level_index: int, fraction: float) -> int:
        """Artificially patch ``fraction`` of the level's buckets (§5.13).

        Sets the patch bit and materializes each resident entry's patch key
        from the bucket owner, so lookups pay the patch-key comparison
        while results stay correct.  Returns the number of buckets patched.
        """
        if not 0.0 <= fraction <= 1.0:
            raise ConfigurationError(f"fraction must be in [0, 1], got {fraction}")
        level = self._levels[level_index]
        if level.patch_bits is None:
            raise ConfigurationError("the first level has no patch structure")
        target = int(level.num_buckets * fraction)
        patched = 0
        for bucket in range(level.num_buckets):
            if patched >= target:
                break
            if level.patch_bits[bucket]:
                patched += 1
                continue
            level.patch_bits[bucket] = 1
            base = bucket * level.bucket_size
            owner = level.bucket_owner[bucket]
            for slot in range(base, base + level.bucket_size):
                if level.keys[slot] is not None and (
                        level.patch_keys[slot] is _NO_PATCH):
                    level.patch_keys[slot] = owner
            patched += 1
        return patched

    def patch_stats(self) -> dict[int, float]:
        """Level index → fraction of buckets patched (paper quotes ~10 %)."""
        stats = {}
        for level in self._levels:
            if level.patch_bits is None:
                continue
            patched = sum(1 for bit in level.patch_bits if bit)
            stats[level.index] = patched / level.num_buckets
        return stats

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def level_fill(self) -> list[float]:
        """Per-level slot occupancy (build-quality diagnostic)."""
        return [level.used_slots / level.capacity for level in self._levels]

    def memory_usage(self) -> int:
        """Actual allocation of this index in design bytes (Fig 18).

        Keys and patch keys at 8 B, counters 4 B, next-bucket offsets 8 B,
        payload tuples ``8×k`` B, patch bits 1 bit per bucket.
        """
        total = 0
        for level in self._levels:
            total += level.capacity * 8  # keys
            if level.prefix_count is not None:
                total += level.capacity * 4
            if level.next_bucket is not None:
                total += level.capacity * 8
            if level.rows is not None:
                total += level.capacity * 8 * self.arity
            if level.patch_bits is not None:
                total += -(-level.num_buckets // 8)  # bits, rounded up
                total += level.capacity * 8  # patch keys
        return total


class SonicCursor(PrefixCursor):
    """Stateful level-by-level descent through a :class:`SonicIndex`.

    The cursor's stack holds one frame per bound component:

    * components ``0 .. k-2`` live at Sonic levels; a frame records the
      matched slot (its prefix counter and next-bucket offset drive
      :meth:`count` and the next descend);
    * component ``k-1`` exists only inside last-level payloads; its frame
      is the verified row.

    Implements the :class:`repro.indexes.base.PrefixCursor` contract.
    """

    __slots__ = ("_index", "_path", "_slots")

    def __init__(self, index: SonicIndex):
        self._index = index
        self._path: list = []      # bound component values
        self._slots: list = []     # matched slot per level-bound component

    @property
    def depth(self) -> int:
        return len(self._path)

    # ------------------------------------------------------------------
    def try_descend(self, value) -> bool:
        index = self._index
        depth = self.depth
        if depth >= index.arity:
            raise SchemaError(f"cursor already at full depth {depth}")

        if depth == index.arity - 1:
            # final component: verify the full tuple against a payload
            if self._final_exists(value):
                self._path.append(value)
                self._slots.append(None)
                return True
            return False

        level = index._levels[depth]
        if depth == 0:
            slot, found = index._probe_first(level, value)
        else:
            designated = index._levels[depth - 1].next_bucket[self._slots[-1]]
            slot, found = index._probe_inner(level, designated, value,
                                             self._path[-1])
        if not found:
            return False
        if level.is_last and (level.spilled or level.shared):
            # the slot keys component k-2, but under probe-chain overlap
            # its payloads may belong to a foreign ancestry (§3.3): verify
            # that at least one payload matches the whole path (early-exit
            # scan; unambiguous levels skip this entirely)
            if next(iter(self._last_level_rows(value)), None) is None:
                return False
        self._path.append(value)
        self._slots.append(slot)
        return True

    def ascend(self) -> None:
        if not self._path:
            raise SchemaError("cursor.ascend above the root")
        self._path.pop()
        self._slots.pop()

    # ------------------------------------------------------------------
    def child_values(self):
        index = self._index
        depth = self.depth
        if depth >= index.arity:
            raise SchemaError("cursor at full depth has no children")
        if depth == index.arity - 1:
            # payload components below the current last-level key
            seen = set()
            for row in self._last_level_rows(self._path[-1]):
                value = row[depth]
                if value not in seen:
                    seen.add(value)
                    yield value
            return
        level = index._levels[depth]
        if depth == 0:
            seen = set() if level.is_last else None
            for slot in range(level.capacity):
                key = level.keys[slot]
                if key is None:
                    continue
                if seen is None:
                    yield key
                elif key not in seen:
                    seen.add(key)
                    yield key
            return
        designated = index._levels[depth - 1].next_bucket[self._slots[-1]]
        parent_key = self._path[-1]
        if not (level.spilled or level.shared):
            base = designated * level.bucket_size
            seen = set() if level.is_last else None
            for slot in range(base, base + level.bucket_size):
                key = level.keys[slot]
                if key is None:
                    continue
                if seen is None:
                    yield key
                elif key not in seen:
                    seen.add(key)
                    yield key
            return
        # spilled/shared level: inline chain walk (hot path under skew)
        seen = set()
        keys = level.keys
        capacity = level.capacity
        base = designated * level.bucket_size
        last_start = base + level.bucket_size - 1
        slot = base
        for _ in range(capacity):
            key = keys[slot]
            if key is None:
                if slot >= last_start or slot < base:
                    return
            elif key not in seen and index._parent_matches(level, slot,
                                                           parent_key):
                seen.add(key)
                yield key
            slot += 1
            if slot == capacity:
                slot = 0

    def count(self) -> int:
        """Advisory subtree size: the raw prefix counter (§3.4.3).

        Counter-bearing depths answer in O(1); depths at or below the last
        level scan the (short) payload bucket chain.  At full depth the
        node is a single verified tuple.
        """
        index = self._index
        depth = self.depth
        if depth == 0:
            return len(index)
        if depth == index.arity:
            return 1
        if depth == index.arity - 1:
            # node keyed at the last level, which has no counter (§3.4.1):
            # read the node's head-slot counter: the first (key, parent)-
            # matching slot in probe order carries the per-node count, so
            # seed selection stays O(probe) even on heavy-hitter chains.
            # Accuracy matters here — the Generic Join's anchor selection
            # relies on real sub-problem sizes (Alg. 1 line 10).
            key = self._path[-1]
            level = index._levels[-1]
            keys = level.keys
            capacity = level.capacity
            if index.num_levels == 1:
                slot = index._first_slot(level, key)
                check_parent = False
                parent_key = None
            else:
                designated, parent_key = self._last_level_frame()
                slot = (designated * level.bucket_size
                        + hash_key(key, index._seed) % level.bucket_size)
                check_parent = True
            for _ in range(capacity):
                existing = keys[slot]
                if existing is None:
                    return 0
                if existing == key and (not check_parent or
                                        index._parent_matches(level, slot,
                                                              parent_key)):
                    return level.prefix_count[slot]
                slot = (slot + 1) % capacity
            return 0
        return index._levels[depth - 1].prefix_count[self._slots[-1]]

    # ------------------------------------------------------------------
    def _last_level_frame(self):
        """(designated, parent_key) for scanning the last level."""
        index = self._index
        last = index.num_levels - 1  # level index of the last level
        if last == 0:
            return None, None  # arity 2: level 0 probed by hash, no parent
        # the frame below the last-level component holds the level last-1 slot
        slot = self._slots[last - 1]
        designated = index._levels[last - 1].next_bucket[slot]
        parent_key = self._path[last - 1]
        return designated, parent_key

    def _last_level_rows(self, key):
        """Payload rows matching the full bound path plus ``key`` at k-2.

        ``key`` is the last-level key component (path position k-2); the
        bound path up to and including that component is verified against
        each payload.
        """
        index = self._index
        level = index._levels[-1]
        prefix = tuple(self._path[:index.arity - 2]) + (key,)
        width = len(prefix)
        if index.num_levels == 1:
            # arity 2: scan the probe chain from the hashed home slot
            capacity = level.capacity
            slot = index._first_slot(level, key)
            for _ in range(capacity):
                existing = level.keys[slot]
                if existing is None:
                    return
                if existing == key:
                    row = level.rows[slot]
                    if row[:width] == prefix:
                        yield row
                slot = (slot + 1) % capacity
            return
        designated, parent_key = self._last_level_frame()
        if not (level.spilled or level.shared):
            base = designated * level.bucket_size
            for slot in range(base, base + level.bucket_size):
                if level.keys[slot] == key:
                    row = level.rows[slot]
                    if row[:width] == prefix:
                        yield row
            return
        # spilled/shared level: walk the bucket chain inline (this is the
        # enumeration inner loop; the generator-based _bucket_chain costs
        # a resumption per slot)
        keys = level.keys
        rows = level.rows
        capacity = level.capacity
        base = designated * level.bucket_size
        last_start = base + level.bucket_size - 1
        slot = base
        for _ in range(capacity):
            existing = keys[slot]
            if existing is None:
                if slot >= last_start or slot < base:
                    return
            elif existing == key and index._parent_matches(level, slot,
                                                           parent_key):
                row = rows[slot]
                if row[:width] == prefix:
                    yield row
            slot += 1
            if slot == capacity:
                slot = 0

    def _final_exists(self, value) -> bool:
        """Exact point check of ``path + (value,)`` against stored payloads.

        Written as direct loops rather than through ``_last_level_rows``:
        this sits in the Generic Join's innermost intersection and hub keys
        can have long chains.
        """
        index = self._index
        key = self._path[index.arity - 2]
        candidate = tuple(self._path) + (value,)
        level = index._levels[-1]
        keys = level.keys
        rows = level.rows
        if index.num_levels == 1:
            capacity = level.capacity
            slot = index._first_slot(level, key)
            for _ in range(capacity):
                existing = keys[slot]
                if existing is None:
                    return False
                if existing == key and rows[slot] == candidate:
                    return True
                slot = (slot + 1) % capacity
            return False
        designated, parent_key = self._last_level_frame()
        if not (level.spilled or level.shared):
            base = designated * level.bucket_size
            for slot in range(base, base + level.bucket_size):
                if keys[slot] == key and rows[slot] == candidate:
                    return True
            return False
        capacity = level.capacity
        base = designated * level.bucket_size
        last_start = base + level.bucket_size - 1
        slot = base
        for _ in range(capacity):
            existing = keys[slot]
            if existing is None:
                if slot >= last_start or slot < base:
                    return False
            elif existing == key and rows[slot] == candidate:
                if index._parent_matches(level, slot, parent_key):
                    return True
            slot += 1
            if slot == capacity:
                slot = 0
        return False
