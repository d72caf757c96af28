"""Hash partitioning of relations on the first total-order attribute.

Generic Join shards on the leading attribute of the total order: every
result tuple binds it to exactly one value, so routing each value to
``hash(value) % K`` splits the result set into K disjoint pieces (the
classic distribution argument for Leapfrog Triejoin / NPRR).  Relations
that carry the attribute are split row-wise by that hash; relations
that never bind it are replicated to all shards.

The hash must be deterministic **across processes** — workers never
re-partition, but the equivalence tests re-derive shard membership, and
``PYTHONHASHSEED`` must not be able to skew the split.  Integer columns
(the int64-canonical :meth:`~repro.storage.relation.Relation.columns`
fast path) go through a vectorized :func:`repro.core.hashing.fmix64`;
object columns fall back to the same scalar :func:`hash_key` the
indexes use, so both paths agree on integer values.
"""

from __future__ import annotations

import numpy as np

from repro.core.hashing import hash_key
from repro.parallel.pool import execution_error
from repro.parallel.shm import ColumnHandle, ShardedColumns, export_array
from repro.storage.relation import Relation

_M1 = np.uint64(0xFF51AFD7ED558CCD)
_M2 = np.uint64(0xC4CEB9FE1A85EC53)
_S33 = np.uint64(33)


def _fmix64_array(values: np.ndarray) -> np.ndarray:
    """Vectorized Murmur3 finalizer, bit-identical to ``fmix64``."""
    v = values.astype(np.uint64, copy=True)
    with np.errstate(over="ignore"):
        v ^= v >> _S33
        v *= _M1
        v ^= v >> _S33
        v *= _M2
        v ^= v >> _S33
    return v


def _hash_value(value: object) -> int:
    """Deterministic scalar hash for object-dtype column values.

    Values outside :func:`hash_key`'s domain (floats, None, tuples...)
    hash by their ``repr`` — stable across processes, which is all a
    partitioner needs.
    """
    try:
        return hash_key(value)
    except TypeError:
        return hash_key(repr(value))


def shard_ids(column: np.ndarray, workers: int) -> np.ndarray:
    """Shard id (``0..workers-1``) of every row, from one column."""
    if workers <= 1:
        return np.zeros(len(column), dtype=np.int64)
    if column.dtype == np.int64:
        mixed = _fmix64_array(column)
        return (mixed % np.uint64(workers)).astype(np.int64)
    ids = np.empty(len(column), dtype=np.int64)
    for i, value in enumerate(column.tolist()):
        ids[i] = _hash_value(value) % workers
    return ids


def shard_of(value: object, workers: int) -> int:
    """The shard one attribute value routes to (test/debug helper)."""
    if workers <= 1:
        return 0
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(_fmix64_array(np.asarray([value], dtype=np.int64))[0]
                   % np.uint64(workers))
    return _hash_value(value) % workers


def partition_order(column: np.ndarray, workers: int,
                    ) -> "tuple[np.ndarray, np.ndarray]":
    """``(row_order, boundaries)`` grouping rows by shard id.

    ``row_order`` is a stable permutation of row positions sorted by
    shard id (rows within a shard keep relation order — determinism the
    merge layer leans on); ``boundaries`` has ``workers + 1`` entries,
    shard ``s`` owning ``row_order[boundaries[s]:boundaries[s+1]]``.
    """
    ids = shard_ids(column, workers)
    row_order = np.argsort(ids, kind="stable")
    boundaries = np.searchsorted(ids[row_order],
                                 np.arange(workers + 1, dtype=np.int64))
    return row_order, boundaries


def build_sharded_columns(relation: Relation, partition_position: "int | None",
                          workers: int) -> ShardedColumns:
    """Partition one relation's columns into K shards of shared memory.

    ``partition_position`` is the storage position of the partition
    attribute, or ``None`` when this relation does not bind it — then
    the columns are exported once and every shard references the same
    segments (replication by aliasing, not copying).
    """
    arrays = relation.columns()
    segments = []

    def export(array: np.ndarray) -> ColumnHandle:
        try:
            handle, segment = export_array(array)
        except OSError as exc:  # /dev/shm full: release what we made
            for made in segments:
                made.close()
            raise execution_error(
                f"cannot place relation {relation.name!r} in shared "
                f"memory: {exc}") from exc
        if segment is not None:
            segments.append(segment)
        return handle

    if partition_position is None:
        handles = tuple(export(array) for array in arrays)
        shard_handles = (handles,) * workers
        lengths = (len(arrays[0]),) * workers
    else:
        row_order, bounds = partition_order(arrays[partition_position],
                                            workers)
        per_shard = []
        lengths_list = []
        for shard in range(workers):
            rows = row_order[bounds[shard]:bounds[shard + 1]]
            lengths_list.append(int(len(rows)))
            per_shard.append(tuple(export(array.take(rows))
                                   for array in arrays))
        shard_handles = tuple(per_shard)
        lengths = tuple(lengths_list)
    return ShardedColumns(
        workers=workers,
        partition_position=partition_position,
        shard_handles=shard_handles,
        lengths=lengths,
        segments=tuple(segments),
    )
