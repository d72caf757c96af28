"""Columnar ``build_bulk``: structure identity and join equivalence.

The bulk path's contract is strong: for Sonic, the structure it produces
must be **byte-identical** to sequential ``insert()`` of the same
deduplicated rows in canonical (sorted) order — every level array equal,
slot for slot — and for every index the join results through the bulk
path must match the per-tuple reference exactly, across all join drivers
and an object-dtype (string-keyed) relation.
"""

import random

import numpy as np
import pytest

from repro import join
from repro.core import SonicConfig, SonicIndex
from repro.core.adapter import bulk_build_enabled, set_bulk_build
from repro.indexes.base import bulk_columns, sorted_unique_rows
from repro.indexes.sorted_trie import SortedTrie
from repro.storage import Relation

ALGORITHMS = ("generic", "binary", "hashtrie", "leapfrog", "recursive")


def columns_of(rows, arity):
    return [np.asarray([row[i] for row in rows], dtype=np.int64)
            if rows and isinstance(rows[0][i], int)
            else _object_column([row[i] for row in rows])
            for i in range(arity)]


def _object_column(values):
    array = np.empty(len(values), dtype=object)
    array[:] = values
    return array


def level_state(index):
    """Every mutable field of every Sonic level, as plain lists."""
    out = []
    for level in index._levels:
        out.append({
            "keys": list(level.keys),
            "rows": None if level.rows is None else list(level.rows),
            "prefix_count": list(level.prefix_count),
            "next_bucket": (None if level.next_bucket is None
                            else list(level.next_bucket)),
            "patch_bits": (None if level.patch_bits is None
                           else list(level.patch_bits)),
            "patch_keys": (None if level.patch_keys is None
                           else list(level.patch_keys)),
            "bucket_owner": (None if level.bucket_owner is None
                             else list(level.bucket_owner)),
            "bucket_free": list(level.bucket_free),
            "alloc_frontier": level.alloc_frontier,
            "used_slots": level.used_slots,
            "spilled": level.spilled,
            "shared": level.shared,
        })
    return out


def random_rows(arity, count, domain, seed, duplicates=0):
    rng = random.Random(seed)
    rows = [tuple(rng.randrange(domain) for _ in range(arity))
            for _ in range(count)]
    return rows + rows[:duplicates]


class TestSonicStructureIdentity:
    @pytest.mark.parametrize("arity,count,domain", [
        (2, 5000, 120),   # heavy groups: long shared-prefix runs
        (2, 5000, 50000), # sparse: mostly singleton groups
        (3, 4000, 60),
        (4, 3000, 25),
    ])
    def test_bulk_equals_sorted_sequential_insert(self, arity, count, domain):
        rows = random_rows(arity, count, domain, seed=arity * 17,
                           duplicates=count // 10)
        columns = columns_of(rows, arity)
        config = SonicConfig.for_tuples(len(rows))
        bulk = SonicIndex(arity, config)
        bulk.build_bulk(columns)
        reference = SonicIndex(arity, config)
        for row in sorted_unique_rows(bulk_columns(arity, columns)):
            reference.insert(row)
        assert len(bulk) == len(reference) == len(set(rows))
        assert level_state(bulk) == level_state(reference)

    def test_string_keys_identical(self):
        rng = random.Random(3)
        rows = [(f"u{rng.randrange(40)}", rng.randrange(40))
                for _ in range(2000)]
        columns = [np.asarray([r[0] for r in rows]),
                   np.asarray([r[1] for r in rows], dtype=np.int64)]
        config = SonicConfig.for_tuples(len(rows))
        bulk = SonicIndex(2, config)
        bulk.build_bulk(columns)
        reference = SonicIndex(2, config)
        for row in sorted_unique_rows(bulk_columns(2, columns)):
            reference.insert(row)
        assert level_state(bulk) == level_state(reference)

    def test_prefix_operations_after_bulk(self):
        rows = random_rows(3, 2000, 40, seed=9)
        index = SonicIndex(3, SonicConfig.for_tuples(len(rows)))
        index.build_bulk(columns_of(rows, 3))
        distinct = set(rows)
        for row in list(distinct)[:200]:
            assert index.contains(row)
            assert index.count_prefix(row[:1]) == sum(
                1 for r in distinct if r[0] == row[0])
            assert set(index.prefix_lookup(row[:2])) == {
                r for r in distinct if r[:2] == row[:2]}

    def test_empty_and_single(self):
        empty = SonicIndex(2, SonicConfig.for_tuples(16))
        empty.build_bulk([np.empty(0, dtype=np.int64)] * 2)
        assert len(empty) == 0
        one = SonicIndex(2, SonicConfig.for_tuples(16))
        one.build_bulk([np.asarray([7]), np.asarray([9])])
        assert len(one) == 1 and one.contains((7, 9))


class TestBulkFallbacks:
    def test_non_empty_index_falls_back(self):
        rows = random_rows(2, 500, 60, seed=2)
        index = SonicIndex(2, SonicConfig.for_tuples(len(rows) + 1))
        index.insert((999_999, 999_999))
        index.build_bulk(columns_of(rows, 2))
        assert len(index) == len(set(rows)) + 1
        assert index.contains((999_999, 999_999))
        assert all(index.contains(row) for row in set(rows))

    def test_tracer_falls_back_to_traced_inserts(self):
        class CountingTracer:
            def __init__(self):
                self.records = 0

            def record(self, level, region, slot, size):
                self.records += 1

        rows = random_rows(2, 200, 40, seed=5)
        tracer = CountingTracer()
        index = SonicIndex(2, SonicConfig.for_tuples(len(rows)),
                           tracer=tracer)
        index.build_bulk(columns_of(rows, 2))
        assert len(index) == len(set(rows))
        assert tracer.records > 0, "bulk path must not silence the tracer"

    def test_unsortable_values_fall_back(self):
        mixed = _object_column([1, "x", 2, "y"])
        index = SonicIndex(2, SonicConfig.for_tuples(8))
        index.build_bulk([mixed, np.arange(4)])
        assert len(index) == 4
        assert index.contains(("x", 1))

    def test_ragged_columns_rejected(self):
        from repro.errors import SchemaError
        index = SonicIndex(2, SonicConfig.for_tuples(8))
        with pytest.raises(SchemaError):
            index.build_bulk([np.arange(3), np.arange(4)])
        with pytest.raises(SchemaError):
            index.build_bulk([np.arange(3)])


class TestSortedTrieBulk:
    def test_bulk_equals_per_row_build(self):
        rows = random_rows(3, 3000, 30, seed=11, duplicates=300)
        bulk = SortedTrie(3)
        bulk.build_bulk(columns_of(rows, 3))
        reference = SortedTrie(3)
        reference.build(rows)
        assert bulk.rows == reference.rows
        assert len(bulk) == len(reference)

    def test_bulk_on_non_empty_merges(self):
        trie = SortedTrie(2)
        trie.insert((1, 2))
        trie.build_bulk([np.asarray([1, 3]), np.asarray([2, 4])])
        assert trie.rows == [(1, 2), (3, 4)]


class TestJoinEquivalence:
    """Bulk-on vs bulk-off joins agree across every driver."""

    @staticmethod
    def _triangle_source(seed, domain=25, count=160):
        rng = random.Random(seed)
        edges = Relation("E", ("s", "d"),
                         {(rng.randrange(domain), rng.randrange(domain))
                          for _ in range(count)})
        return {"E1": edges, "E2": edges, "E3": edges}

    @staticmethod
    def _run_both(query, source, **kwargs):
        # the switch is the registry indexes': the tuple engine's builds
        kwargs.setdefault("engine", "tuple")
        previous = set_bulk_build(False)
        try:
            reference = join(query, source, materialize=True, **kwargs)
            set_bulk_build(True)
            bulk = join(query, source, materialize=True, **kwargs)
        finally:
            set_bulk_build(previous)
        assert bulk.count == reference.count
        assert sorted(bulk.rows) == sorted(reference.rows)
        return bulk

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_triangle_all_drivers(self, algorithm):
        query = "E1=E(a,b), E2=E(b,c), E3=E(c,a)"
        result = self._run_both(query, self._triangle_source(seed=21),
                                algorithm=algorithm)
        assert result.count > 0

    @pytest.mark.parametrize("index", ("sonic", "sortedtrie"))
    def test_generic_join_per_index(self, index):
        query = "E1=E(a,b), E2=E(b,c), E3=E(c,a)"
        self._run_both(query, self._triangle_source(seed=22), index=index)

    def test_object_dtype_relation(self):
        rng = random.Random(33)
        names = [f"n{i}" for i in range(18)]
        edges = Relation("E", ("s", "d"),
                         {(rng.choice(names), rng.choice(names))
                          for _ in range(150)})
        source = {"E1": edges, "E2": edges, "E3": edges}
        query = "E1=E(a,b), E2=E(b,c), E3=E(c,a)"
        for algorithm in ("generic", "leapfrog"):
            self._run_both(query, source, algorithm=algorithm)

    def test_toggle_restores(self):
        assert bulk_build_enabled()
        previous = set_bulk_build(False)
        assert previous is True
        assert not bulk_build_enabled()
        set_bulk_build(previous)
        assert bulk_build_enabled()
