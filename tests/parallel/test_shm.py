"""Shared-memory transport tests: roundtrip fidelity and leak-freedom.

Every exported segment must come back bit-identical through
:func:`attach_array`, and every ownership path — explicit ``close()``,
garbage collection of the owner, the session cache evicting a
:class:`ShardedColumns` — must leave ``/dev/shm`` with no
``repro_shm_*`` entries.
"""

import gc
import glob
import pickle

import numpy as np
import pytest

from repro.engine import Session
from repro.errors import ExecutionError
from repro.parallel.partition import build_sharded_columns
from repro.parallel.shm import SEGMENT_PREFIX, attach_array, export_array
from repro.storage.relation import Relation


def shm_entries() -> list[str]:
    return glob.glob(f"/dev/shm/{SEGMENT_PREFIX}*")


def test_int64_roundtrip_is_zero_copy_shm():
    array = np.array([1, -2, 3, 2**60], dtype=np.int64)
    handle, segment = export_array(array)
    try:
        assert handle.kind == "shm"
        attached, shm = attach_array(handle)
        assert attached.dtype == np.int64
        assert attached.tolist() == array.tolist()
        assert not attached.flags.writeable
        shm.close()
    finally:
        segment.close()
    assert segment.released


def test_object_column_rides_inline():
    array = np.empty(3, dtype=object)
    array[:] = ["x", ("y", 1), None]
    handle, segment = export_array(array)
    assert segment is None
    assert handle.kind == "inline"
    attached, shm = attach_array(handle)
    assert shm is None
    assert attached.tolist() == array.tolist()


def test_empty_column_rides_inline():
    handle, segment = export_array(np.array([], dtype=np.int64))
    assert segment is None
    attached, _ = attach_array(handle)
    assert attached.dtype == np.int64 and len(attached) == 0


def test_handles_pickle_roundtrip():
    array = np.arange(10, dtype=np.int64)
    handle, segment = export_array(array)
    try:
        clone = pickle.loads(pickle.dumps(handle))
        assert clone == handle
        assert clone.signature() == handle.signature()
        attached, shm = attach_array(clone)
        assert attached.tolist() == array.tolist()
        shm.close()
    finally:
        segment.close()


def test_close_releases_dev_shm_entry():
    before = set(shm_entries())
    handle, segment = export_array(np.arange(100, dtype=np.int64))
    assert f"/dev/shm/{handle.name}" in set(shm_entries()) - before
    segment.close()
    segment.close()  # idempotent
    assert handle.name not in {e.rsplit("/", 1)[-1] for e in shm_entries()}


def test_gc_finalizer_releases_unclosed_segments():
    before = set(shm_entries())
    relation = Relation("R", ("a", "b"), [(i % 5, i) for i in range(200)])
    columns = build_sharded_columns(relation.columns(), 0, 3)
    assert set(shm_entries()) - before
    del columns  # no close(): the weakref finalizers must fire
    gc.collect()
    assert set(shm_entries()) == before


def test_sharded_columns_close_is_idempotent():
    relation = Relation("R", ("a", "b"), [(i, i) for i in range(50)])
    columns = build_sharded_columns(relation.columns(), None, 2)
    assert columns.memory_usage() > 0
    columns.close()
    columns.close()
    assert not [e for e in shm_entries() if "repro_shm_" in e
                and any(h.name and h.name in e
                        for h in columns.handles_for(0))]


TRIANGLE = "E1=E(a,b), E2=E(b,c), E3=E(c,a)"


def _closed_sharded_join(session_first: bool):
    """A sharded prepared join and its session, both closed, both alive."""
    edges = Relation("E", ("s", "t"),
                     [(i, j) for i in range(8) for j in range(8) if i != j])
    session = Session({"E": edges})
    prepared = session.prepare(TRIANGLE, parallel=2)
    assert prepared.execute().count == 8 * 7 * 6
    for closeable in ((session, prepared) if session_first
                      else (prepared, session)):
        closeable.close()
    return prepared, session


@pytest.mark.parametrize("session_first", [False, True])
def test_closed_sharded_join_holds_no_segment(session_first):
    # the cache co-owns the columns: once it and the prepared join have
    # both let go, nothing but the collector could keep a segment alive
    # — and it must not take the collector
    before = set(shm_entries())
    gc.collect()
    gc.disable()
    try:
        held = _closed_sharded_join(session_first)
        assert set(shm_entries()) == before
    finally:
        gc.enable()
    del held


def test_closed_sharded_join_refuses_to_execute():
    prepared, _session = _closed_sharded_join(session_first=False)
    with pytest.raises(ExecutionError, match="closed"):
        prepared.execute()
    prepared.close()  # still idempotent
