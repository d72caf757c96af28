"""Order-preserving byte encoding of tuples for radix structures.

ART, the HAT-trie and SuRF all operate on byte strings.  To store relational
tuples in them we need an encoding with two properties:

1. **Order preservation** — encoded bytes compare (memcmp-style) in the
   same order as the original tuples, so range/prefix scans are correct.
2. **Prefix alignment** — the encoding of the first ``l`` components of a
   tuple is a byte-prefix of the encoding of the whole tuple, so an
   attribute-level prefix lookup becomes a byte-level prefix lookup.

Integers are encoded as a tag byte plus 8 big-endian bytes with the sign
bit flipped (the classic bias trick), so negative < positive holds
bytewise.  Strings are encoded as a tag byte plus NUL-escaped UTF-8 with a
``00 00`` terminator (the FoundationDB tuple-layer escape): embedded zero
bytes become ``00 FF``, which keeps the terminator unambiguous and the
ordering intact.  Type tags keep heterogeneous columns deterministic
(ints sort before strings).
"""

from __future__ import annotations

from repro.errors import SchemaError

_INT_TAG = b"\x01"
_STR_TAG = b"\x02"
_INT_BIAS = 1 << 63
_INT_LIMIT = 1 << 63


def encode_component(value: object) -> bytes:
    """Encode one tuple component to self-delimiting, order-preserving bytes."""
    if isinstance(value, bool):
        value = int(value)
    if isinstance(value, int):
        if not -_INT_LIMIT <= value < _INT_LIMIT:
            raise SchemaError(f"integer {value} outside encodable 64-bit range")
        return _INT_TAG + (value + _INT_BIAS).to_bytes(8, "big")
    if isinstance(value, str):
        raw = value.encode("utf-8").replace(b"\x00", b"\x00\xff")
        return _STR_TAG + raw + b"\x00\x00"
    raise SchemaError(f"cannot byte-encode component of type {type(value)!r}")


def encode_tuple(row: tuple) -> bytes:
    """Concatenated component encodings; prefixes align with tuple prefixes."""
    return b"".join(encode_component(value) for value in row)
