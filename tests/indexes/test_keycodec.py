"""Order-preserving byte codec tests."""

import pytest

from repro.errors import SchemaError
from repro.indexes.keycodec import encode_component, encode_tuple


class TestRoundTrip:
    def test_int_out_of_range(self):
        with pytest.raises(SchemaError):
            encode_component(2**63)
        with pytest.raises(SchemaError):
            encode_component(-(2**63) - 1)

    def test_unsupported_type(self):
        with pytest.raises(SchemaError):
            encode_component(1.5)


class TestOrderPreservation:
    def test_integer_order(self):
        values = [-(2**62), -100, -1, 0, 1, 99, 2**62]
        encoded = [encode_tuple((v,)) for v in values]
        assert encoded == sorted(encoded)

    def test_string_order(self):
        values = ["", "a", "aa", "ab", "b", "ba"]
        encoded = [encode_tuple((v,)) for v in values]
        assert encoded == sorted(encoded)

    def test_tuple_order(self):
        rows = sorted([(1, "b"), (1, "a"), (0, "z"), (2, ""), (1, "ab")])
        encoded = [encode_tuple(r) for r in rows]
        assert encoded == sorted(encoded)

    def test_embedded_nul_ordering(self):
        low = encode_tuple(("a\x00b",))
        high = encode_tuple(("a\x01",))
        assert (low < high) == (("a\x00b",) < ("a\x01",))


class TestPrefixAlignment:
    def test_component_prefix_is_byte_prefix(self):
        row = (7, "mid", 9)
        full = encode_tuple(row)
        for length in range(4):
            assert full.startswith(encode_tuple(row[:length]))

    def test_no_key_is_strict_prefix_of_another(self):
        # self-delimiting components: distinct same-arity tuples never
        # byte-prefix each other (ART/HAT-trie leaf-split relies on this)
        rows = [("a", "b"), ("ab", ""), ("a", "bc"), ("", "ab")]
        encoded = [encode_tuple(r) for r in rows]
        for i, left in enumerate(encoded):
            for j, right in enumerate(encoded):
                if i != j:
                    assert not right.startswith(left)
