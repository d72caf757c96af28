"""Property-based tests for the order-preserving key codec and bitvectors."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.indexes.bitvector import BitVector
from repro.indexes.keycodec import encode_tuple

_components = st.one_of(
    st.integers(-(2**62), 2**62),
    st.text(max_size=12),
)
_tuples = st.lists(_components, min_size=1, max_size=4).map(tuple)


@settings(max_examples=150, deadline=None)
@given(left=_tuples, right=_tuples)
def test_order_preservation(left, right):
    # comparable only when component types align position-wise
    for a, b in zip(left, right):
        if type(a) is not type(b):
            return
    if len(left) != len(right):
        # different arities: only prefix-consistent comparisons are defined
        return
    assert (encode_tuple(left) < encode_tuple(right)) == (left < right)
    assert (encode_tuple(left) == encode_tuple(right)) == (left == right)


@settings(max_examples=100, deadline=None)
@given(row=_tuples, length=st.integers(0, 4))
def test_prefix_alignment(row, length):
    prefix = row[:min(length, len(row))]
    assert encode_tuple(row).startswith(encode_tuple(prefix))


@settings(max_examples=100, deadline=None)
@given(bits=st.lists(st.booleans(), max_size=300))
def test_bitvector_rank_select_inverse(bits):
    vector = BitVector.from_bits(bits)
    assert vector.ones == sum(bits)
    running = 0
    for position, bit in enumerate(bits):
        assert vector.rank1(position) == running
        if bit:
            running += 1
            assert vector.select1(running) == position
