"""Partitioner unit tests: determinism, hash agreement, shard grouping.

The partitioner must agree with itself across processes and dtypes:
the vectorized int64 path must be bit-identical to the scalar
:func:`repro.core.hashing.hash_key` the indexes use, object columns
must route integer values to the same shards as the fast path, and
``partition_order`` must be a stable grouping of row positions.
"""

import numpy as np
import pytest

from repro.core.hashing import fmix64, hash_key
from repro.parallel.partition import (
    _fmix64_array,
    build_sharded_columns,
    partition_order,
    shard_ids,
)
from repro.storage.relation import Relation


def test_vectorized_fmix64_matches_scalar():
    values = np.array([0, 1, -1, 2**62, -(2**62), 123456789], dtype=np.int64)
    mixed = _fmix64_array(values)
    for raw, got in zip(values.tolist(), mixed.tolist()):
        assert got == fmix64(raw & 0xFFFFFFFFFFFFFFFF)


@pytest.mark.parametrize("workers", [1, 2, 3, 7])
def test_int64_path_matches_hash_key(workers):
    column = np.array([0, 5, -3, 99, 2**40, 5], dtype=np.int64)
    ids = shard_ids(column, workers)
    for value, sid in zip(column.tolist(), ids.tolist()):
        assert sid == hash_key(value) % workers


def test_object_path_agrees_with_int_path_on_integers():
    values = [0, 7, 123, -5, 2**50]
    int_col = np.array(values, dtype=np.int64)
    obj_col = np.empty(len(values), dtype=object)
    obj_col[:] = values
    assert shard_ids(int_col, 4).tolist() == shard_ids(obj_col, 4).tolist()


def test_object_path_handles_unhashable_key_types():
    # floats/None are outside hash_key's domain; repr-fallback must not
    # raise and must be deterministic
    col = np.empty(4, dtype=object)
    col[:] = [1.5, None, ("a", 2), "text"]
    first = shard_ids(col, 3).tolist()
    assert first == shard_ids(col, 3).tolist()
    assert all(0 <= sid < 3 for sid in first)


def test_partition_order_groups_and_is_stable():
    column = np.array([10, 20, 10, 30, 20, 10], dtype=np.int64)
    workers = 3
    row_order, bounds = partition_order(column, workers)
    assert len(bounds) == workers + 1
    assert bounds[0] == 0 and bounds[-1] == len(column)
    ids = shard_ids(column, workers)
    for shard in range(workers):
        rows = row_order[bounds[shard]:bounds[shard + 1]]
        # every row in the slice routes to this shard...
        assert all(ids[r] == shard for r in rows.tolist())
        # ...and rows keep relation order within the shard (stable sort)
        assert rows.tolist() == sorted(rows.tolist())
    assert sorted(row_order.tolist()) == list(range(len(column)))


def test_build_sharded_columns_partitions_rows_exactly_once():
    rows = [(i % 7, i) for i in range(50)]
    relation = Relation("R", ("a", "b"), rows)
    columns = build_sharded_columns(relation.columns(), 0, 4)
    try:
        assert sum(columns.lengths) == len(relation)
        assert columns.partition_position == 0
    finally:
        columns.close()


def test_build_sharded_columns_replicates_by_aliasing():
    rows = [(i, i + 1) for i in range(20)]
    relation = Relation("R", ("a", "b"), rows)
    columns = build_sharded_columns(relation.columns(), None, 3)
    try:
        assert columns.lengths == (20, 20, 20)
        # all shards alias the same handle row — one segment set
        assert columns.handles_for(0) == columns.handles_for(2)
    finally:
        columns.close()
