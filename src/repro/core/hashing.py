"""Hash functions used by the index structures.

The paper standardizes on MurmurHash [2] for every hash-based index "to
provide an accurate comparison" (§5.4).  We do the same: every structure in
:mod:`repro.indexes` and the Sonic index itself route key hashing through
:func:`hash_key` below, which implements the 64-bit Murmur3 finalizer
(``fmix64``).  The finalizer is a full-avalanche bijection on 64-bit words,
which is exactly the property linear-probing tables need from integer keys;
for byte strings we run the full Murmur3 x64 128-bit core and keep the low
word.

Everything here is deterministic across processes (no ``PYTHONHASHSEED``
dependence), which the test-suite and benchmark harness rely on.
"""

from __future__ import annotations

MASK64 = 0xFFFFFFFFFFFFFFFF

_C1 = 0x87C37B91114253D5
_C2 = 0x4CF5AD432745937F


def fmix64(value: int) -> int:
    """Murmur3 64-bit finalizer: a full-avalanche mix of one 64-bit word."""
    value &= MASK64
    value ^= value >> 33
    value = (value * 0xFF51AFD7ED558CCD) & MASK64
    value ^= value >> 33
    value = (value * 0xC4CEB9FE1A85EC53) & MASK64
    value ^= value >> 33
    return value


def _rotl64(value: int, shift: int) -> int:
    value &= MASK64
    return ((value << shift) | (value >> (64 - shift))) & MASK64


def murmur3_bytes(data: bytes, seed: int = 0) -> int:
    """Murmur3 x64-128 over ``data``, returning the low 64 bits.

    A faithful port of the reference ``MurmurHash3_x64_128``; only the first
    half of the 128-bit digest is returned since the indexes need a single
    word.
    """
    length = len(data)
    h1 = seed & MASK64
    h2 = seed & MASK64

    nblocks = length // 16
    for block in range(nblocks):
        offset = block * 16
        k1 = int.from_bytes(data[offset:offset + 8], "little")
        k2 = int.from_bytes(data[offset + 8:offset + 16], "little")

        k1 = (k1 * _C1) & MASK64
        k1 = _rotl64(k1, 31)
        k1 = (k1 * _C2) & MASK64
        h1 ^= k1

        h1 = _rotl64(h1, 27)
        h1 = (h1 + h2) & MASK64
        h1 = (h1 * 5 + 0x52DCE729) & MASK64

        k2 = (k2 * _C2) & MASK64
        k2 = _rotl64(k2, 33)
        k2 = (k2 * _C1) & MASK64
        h2 ^= k2

        h2 = _rotl64(h2, 31)
        h2 = (h2 + h1) & MASK64
        h2 = (h2 * 5 + 0x38495AB5) & MASK64

    tail = data[nblocks * 16:]
    if len(tail) > 8:
        k2 = int.from_bytes(tail[8:].ljust(8, b"\x00"), "little")
        k2 = (k2 * _C2) & MASK64
        k2 = _rotl64(k2, 33)
        k2 = (k2 * _C1) & MASK64
        h2 ^= k2
    if tail:
        k1 = int.from_bytes(tail[:8].ljust(8, b"\x00"), "little")
        k1 = (k1 * _C1) & MASK64
        k1 = _rotl64(k1, 31)
        k1 = (k1 * _C2) & MASK64
        h1 ^= k1

    h1 ^= length
    h2 ^= length
    h1 = (h1 + h2) & MASK64
    h2 = (h2 + h1) & MASK64
    h1 = fmix64(h1)
    h2 = fmix64(h2)
    h1 = (h1 + h2) & MASK64
    return h1


def hash_key(key: object, seed: int = 0) -> int:
    """Hash a single key (int or str/bytes) to a 64-bit word.

    Integers go through :func:`fmix64` (with the seed mixed in); strings and
    byte strings go through the full Murmur3 core.  This is the one hash
    function shared by every index in the library, mirroring the paper's
    use of Murmur everywhere.
    """
    if isinstance(key, bool):  # bool is an int subclass; normalize first
        key = int(key)
    if isinstance(key, int):
        return fmix64((key ^ (seed * 0x9E3779B97F4A7C15)) & MASK64)
    if isinstance(key, str):
        return murmur3_bytes(key.encode("utf-8"), seed)
    if isinstance(key, bytes):
        return murmur3_bytes(key, seed)
    raise TypeError(f"unhashable key type for index hashing: {type(key)!r}")


def hash_tuple(values: tuple, seed: int = 0) -> int:
    """Hash a tuple of keys by chaining :func:`hash_key` over its elements."""
    state = seed & MASK64
    for value in values:
        state = fmix64(state ^ hash_key(value, seed))
    return state
