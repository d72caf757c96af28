"""SwissTable-style open-addressing hash set (the paper's "Abseil Hash Set").

The paper uses Abseil's hash set as the fastest point-lookup baseline and
as the per-join-key hash table of the binary-join baseline (§1, §5.4).
Abseil's design — a "SwissTable" — keeps one metadata byte per slot: the
top bit distinguishes full from empty/deleted, and the low 7 bits cache a
fragment of the hash so most probe comparisons never touch the key array.
Probing proceeds group-by-group (16 slots per group) with triangular
(quadratic) group stepping.

This is a faithful scalar port of that design: we keep the metadata array,
the 7-bit hash fragments (``H2``), group probing and the power-of-two
growth policy.  What we cannot port is the SSE2 16-way metadata compare;
the scalar loop over a group preserves the *algorithmic* behaviour (probe
lengths, load factors) that the comparative study measures.
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import ClassVar

from repro.core.hashing import hash_tuple
from repro.indexes.base import PointIndex

_EMPTY = 0x80  # metadata byte for a never-used slot
_DELETED = 0x81  # metadata byte for a tombstone
_GROUP = 16  # slots probed per step, as in Abseil
_MAX_LOAD = 0.875  # Abseil's 7/8 load factor


class SwissTableSet(PointIndex):
    """Flat hash set of tuples with SwissTable metadata probing."""

    NAME: ClassVar[str] = "hashset"

    def __init__(self, arity: int, initial_capacity: int = 16):
        super().__init__(arity)
        if initial_capacity < _GROUP:
            initial_capacity = _GROUP
        capacity = 1
        while capacity < initial_capacity:
            capacity <<= 1
        self._capacity = capacity
        self._metadata = bytearray([_EMPTY] * capacity)
        self._slots: list[tuple | None] = [None] * capacity
        self._tombstones = 0

    # ------------------------------------------------------------------
    # Hashing helpers: H1 picks the starting group, H2 is the 7-bit tag.
    # ------------------------------------------------------------------
    @staticmethod
    def _split_hash(row: tuple) -> tuple[int, int]:
        full = hash_tuple(row)
        return full >> 7, full & 0x7F

    def insert(self, row: tuple) -> None:
        row = self._check_row(row)
        if (self._size + self._tombstones + 1) > self._capacity * _MAX_LOAD:
            self._grow()
        h1, h2 = self._split_hash(row)
        mask = self._capacity - 1
        group = (h1 & mask) // _GROUP
        groups = self._capacity // _GROUP
        first_free = -1
        step = 0
        while True:
            base = group * _GROUP
            for offset in range(_GROUP):
                slot = base + offset
                meta = self._metadata[slot]
                if meta == h2 and self._slots[slot] == row:
                    return  # duplicate insert: set semantics
                if meta == _EMPTY:
                    if first_free < 0:
                        first_free = slot
                    self._occupy(first_free, h2, row)
                    return
                if meta == _DELETED and first_free < 0:
                    first_free = slot
            step += 1
            group = (group + step) % groups  # triangular group probing

    def _occupy(self, slot: int, h2: int, row: tuple) -> None:
        if self._metadata[slot] == _DELETED:
            self._tombstones -= 1
        self._metadata[slot] = h2
        self._slots[slot] = row
        self._size += 1

    def contains(self, row: tuple) -> bool:
        row = self._check_row(row)
        slot = self._find_slot(row)
        return slot >= 0

    def remove(self, row: tuple) -> bool:
        """Delete ``row`` if present; returns whether a deletion happened."""
        row = self._check_row(row)
        slot = self._find_slot(row)
        if slot < 0:
            return False
        self._metadata[slot] = _DELETED
        self._slots[slot] = None
        self._size -= 1
        self._tombstones += 1
        return True

    def _find_slot(self, row: tuple) -> int:
        h1, h2 = self._split_hash(row)
        mask = self._capacity - 1
        group = (h1 & mask) // _GROUP
        groups = self._capacity // _GROUP
        step = 0
        while step <= groups:
            base = group * _GROUP
            for offset in range(_GROUP):
                slot = base + offset
                meta = self._metadata[slot]
                if meta == h2 and self._slots[slot] == row:
                    return slot
                if meta == _EMPTY:
                    return -1  # an empty slot terminates the probe chain
            step += 1
            group = (group + step) % groups
        return -1

    def _grow(self) -> None:
        old_slots = self._slots
        self._capacity *= 2
        self._metadata = bytearray([_EMPTY] * self._capacity)
        self._slots = [None] * self._capacity
        self._size = 0
        self._tombstones = 0
        for row in old_slots:
            if row is not None:
                self.insert(row)

    def __iter__(self) -> Iterator[tuple]:
        for meta, row in zip(self._metadata, self._slots):
            if meta < 0x80:
                yield row

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def load_factor(self) -> float:
        return self._size / self._capacity

    def memory_usage(self) -> int:
        """Design footprint: 1 metadata byte + 8 B/key-word per slot."""
        return self._capacity * (1 + 8 * self.arity)
