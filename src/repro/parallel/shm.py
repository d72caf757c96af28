"""Shared-memory column transport between the parent and shard workers.

The partitioner writes each shard's column arrays into POSIX shared
memory (``multiprocessing.shared_memory``); only the **names** of the
segments — wrapped in :class:`ColumnHandle` descriptors with the dtype
and length header a worker needs to map the bytes back into a numpy
array — cross the process boundary.  Workers attach read-only and
zero-copy; no tuple is ever pickled for an int64 column.  Object-dtype
columns (the non-int64 fallback of
:meth:`~repro.storage.relation.Relation.columns`) have no stable byte
representation, so they ride **inline** in the handle as a pickled
value list — correct for any hashable value, just not zero-copy.

**Lifecycle.**  Every segment is owned by exactly one
:class:`Segment` in the creating process; ``close()`` (or garbage
collection of the owner, via ``weakref.finalize``) unmaps and unlinks
it.  Workers attach by name and never unlink.  Two guards keep a
crashing or forked process from tearing down segments it does not own:
the finalizer checks it runs in the creating process (a fork inherits
the ``Segment`` objects; its exit must not unlink the parent's
segments), and worker attaches leave their automatic
``resource_tracker`` registration in place — workers share the
parent's tracker daemon, where the duplicate add is a set no-op and
the parent's unlink retires the name exactly once (see
:func:`attach_array`).  All names carry the :data:`SEGMENT_PREFIX`, so
a test or CI job can assert ``/dev/shm`` holds no leaked
``repro_shm_*`` entries.
"""

from __future__ import annotations

import os
import pickle
import secrets
import weakref
from dataclasses import dataclass
from multiprocessing import shared_memory
from multiprocessing.util import register_after_fork

import numpy as np

#: every segment name starts with this — the leak-detection hook
SEGMENT_PREFIX = "repro_shm_"


def _new_segment_name() -> str:
    return f"{SEGMENT_PREFIX}{os.getpid():x}_{secrets.token_hex(8)}"


@dataclass(frozen=True)
class ColumnHandle:
    """Process-crossing descriptor of one shard column.

    ``kind="shm"``: ``name`` is a shared-memory segment holding
    ``length`` items of ``dtype`` — the zero-copy path.
    ``kind="inline"``: ``payload`` is a pickled value list (object
    columns and zero-length columns, where a segment is not worth its
    page).  Handles are plain frozen data — safe to pickle into a
    worker task, hashable for cache signatures.
    """

    kind: str
    dtype: str
    length: int
    name: "str | None" = None
    payload: "bytes | None" = None

    def signature(self) -> tuple:
        """A cheap identity for worker-side prepared-state caching."""
        if self.kind == "shm":
            return ("shm", self.name, self.length)
        payload = self.payload or b""
        return ("inline", self.length, len(payload), hash(payload))


def _release_segment(shm: shared_memory.SharedMemory, owner_pid: int) -> None:
    """Unmap, and unlink iff running in the process that created it."""
    try:
        shm.close()
    except (OSError, BufferError):
        pass
    if os.getpid() != owner_pid:
        return
    try:
        shm.unlink()
    except FileNotFoundError:
        pass


class Segment:
    """Owning wrapper of one created segment; unlinks exactly once."""

    __slots__ = ("name", "nbytes", "_finalizer", "__weakref__")

    def __init__(self, shm: shared_memory.SharedMemory):
        self.name = shm.name
        self.nbytes = shm.size
        self._finalizer = weakref.finalize(self, _release_segment, shm,
                                           os.getpid())
        # a worker forked while this segment lives unmaps its copy
        register_after_fork(self, Segment.close)

    def close(self) -> None:
        self._finalizer()

    @property
    def released(self) -> bool:
        return not self._finalizer.alive

    def __repr__(self) -> str:
        state = "released" if self.released else f"{self.nbytes}B"
        return f"Segment({self.name!r}, {state})"


def export_array(array: np.ndarray) -> "tuple[ColumnHandle, Segment | None]":
    """One column array → a handle (and the owning segment, if any)."""
    if array.dtype == object or array.nbytes == 0:
        payload = pickle.dumps(array.tolist(),
                               protocol=pickle.HIGHEST_PROTOCOL)
        handle = ColumnHandle(kind="inline", dtype=str(array.dtype),
                              length=len(array), payload=payload)
        return handle, None
    shm = shared_memory.SharedMemory(create=True, size=array.nbytes,
                                     name=_new_segment_name())
    view = np.ndarray(array.shape, dtype=array.dtype, buffer=shm.buf)
    view[:] = array
    handle = ColumnHandle(kind="shm", dtype=str(array.dtype),
                          length=len(array), name=shm.name)
    return handle, Segment(shm)


def attach_array(handle: ColumnHandle,
                 ) -> "tuple[np.ndarray, shared_memory.SharedMemory | None]":
    """A handle → a read-only array (worker side).

    The returned ``SharedMemory`` must stay referenced as long as the
    array is used — the array borrows its buffer.  ``None`` for inline
    handles.
    """
    if handle.kind == "inline":
        values = pickle.loads(handle.payload or b"")
        if handle.dtype == "object":
            array = np.empty(len(values), dtype=object)
            array[:] = values
        else:
            array = np.asarray(values, dtype=np.dtype(handle.dtype))
        array.flags.writeable = False
        return array, None
    shm = shared_memory.SharedMemory(name=handle.name)
    # Python ≤ 3.12 registers attaches with the resource tracker as if
    # they were creations.  Workers share the parent's tracker daemon
    # (fork inherits its fd; spawn passes it in the preparation data)
    # and registrations live in a set, so the duplicate add is a no-op
    # and the parent's eventual unlink retires the name exactly once —
    # unregistering here instead would cancel the parent's registration
    # and turn that unlink into tracker KeyError noise.
    array = np.ndarray((handle.length,), dtype=np.dtype(handle.dtype),
                       buffer=shm.buf)
    array.flags.writeable = False
    return array, shm


class ShardedColumns:
    """One relation's columns, partitioned into K shards of shared memory.

    The prepare-stage artifact the session cache holds for a sharded
    plan (in place of a built index): per-shard
    :class:`ColumnHandle` rows plus the owning :class:`Segment` set.
    ``partition_position`` is the storage position the rows were
    hash-split on, or ``None`` when the relation is replicated to all
    shards (then every shard's handles alias the same segments).
    Attribute names are deliberately absent — renamed views share one
    fingerprint and therefore one cache entry; the worker task carries
    each alias's query attributes separately.
    """

    def __init__(self, workers: int, partition_position: "int | None",
                 shard_handles: "tuple[tuple[ColumnHandle, ...], ...]",
                 lengths: "tuple[int, ...]",
                 segments: "tuple[Segment, ...]"):
        self.workers = workers
        self.partition_position = partition_position
        self.shard_handles = shard_handles
        self.lengths = lengths
        self._segments = segments

    def handles_for(self, shard: int) -> "tuple[ColumnHandle, ...]":
        return self.shard_handles[shard]

    def memory_usage(self) -> int:
        """Transport bytes: owned segments plus inline payloads."""
        total = sum(segment.nbytes for segment in self._segments)
        seen_inline = 0
        for handles in self.shard_handles:
            for handle in handles:
                if handle.kind == "inline" and handle.payload:
                    seen_inline += len(handle.payload)
            if self.partition_position is None:
                break  # replicated shards alias one handle row
        return total + seen_inline

    def close(self) -> None:
        """Release every owned segment (idempotent)."""
        for segment in self._segments:
            segment.close()

    def __repr__(self) -> str:
        kind = ("replicated" if self.partition_position is None
                else f"split@{self.partition_position}")
        return (f"ShardedColumns(workers={self.workers}, {kind}, "
                f"lengths={list(self.lengths)})")
