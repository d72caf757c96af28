"""Rank/select bitvector tests (SuRF's substrate)."""

import random

import pytest

from repro.indexes.bitvector import BitVector, BitVectorBuilder


def reference_rank1(bits, position):
    return sum(bits[:position])


def reference_select1(bits, k):
    seen = 0
    for index, bit in enumerate(bits):
        if bit:
            seen += 1
            if seen == k:
                return index
    raise IndexError


class TestRank:
    def test_rank_against_reference(self):
        rng = random.Random(121)
        bits = [rng.random() < 0.3 for _ in range(1000)]
        vector = BitVector.from_bits(bits)
        for position in range(0, 1001, 7):
            assert vector.rank1(position) == reference_rank1(bits, position)
            assert vector.rank0(position) == position - reference_rank1(bits, position)

    def test_rank_at_bounds(self):
        vector = BitVector.from_bits([True, False, True])
        assert vector.rank1(0) == 0
        assert vector.rank1(3) == 2
        assert vector.rank1(100) == 2  # clamped
        assert vector.rank1(-5) == 0

    def test_word_boundary_ranks(self):
        bits = [True] * 64 + [False] * 64 + [True] * 10
        vector = BitVector.from_bits(bits)
        assert vector.rank1(64) == 64
        assert vector.rank1(65) == 64
        assert vector.rank1(128) == 64
        assert vector.rank1(138) == 74


class TestSelect:
    def test_select_against_reference(self):
        rng = random.Random(122)
        bits = [rng.random() < 0.4 for _ in range(800)]
        vector = BitVector.from_bits(bits)
        ones = sum(bits)
        for k in range(1, ones + 1, 5):
            assert vector.select1(k) == reference_select1(bits, k)

    def test_select_rank_inverse(self):
        rng = random.Random(123)
        bits = [rng.random() < 0.5 for _ in range(500)]
        vector = BitVector.from_bits(bits)
        for k in range(1, vector.ones + 1, 3):
            position = vector.select1(k)
            assert vector.rank1(position + 1) == k
            assert bits[position]

    def test_select_out_of_range(self):
        vector = BitVector.from_bits([True, False])
        with pytest.raises(IndexError):
            vector.select1(2)
        with pytest.raises(IndexError):
            vector.select1(0)

    def test_select0(self):
        bits = [True, False, False, True, False]
        vector = BitVector.from_bits(bits)
        assert vector.select0(1) == 1
        assert vector.select0(2) == 2
        assert vector.select0(3) == 4
        with pytest.raises(IndexError):
            vector.select0(4)


class TestBuilder:
    def test_append_and_index(self):
        builder = BitVectorBuilder()
        pattern = [True, False] * 100
        builder.extend(pattern)
        assert len(builder) == 200
        vector = builder.freeze()
        assert len(vector) == 200
        for index, bit in enumerate(pattern):
            assert vector[index] == bit

    def test_empty_vector(self):
        vector = BitVectorBuilder().freeze()
        assert len(vector) == 0
        assert vector.ones == 0
        assert vector.rank1(0) == 0

    def test_index_out_of_range(self):
        vector = BitVector.from_bits([True])
        with pytest.raises(IndexError):
            vector[1]

    def test_memory_usage(self):
        vector = BitVector.from_bits([True] * 1000)
        assert vector.memory_usage() > 0
