"""Worker-pool and failure-path tests.

A worker that raises must surface as :class:`~repro.errors.ExecutionError`
carrying the worker-side traceback; a dead worker must not hang the
parent; bad configuration fails fast at plan time, not in a child
process.
"""

import pickle

import pytest

from repro.engine.pipeline import bind, plan
from repro.errors import ConfigurationError, ExecutionError
from repro.parallel.pool import WorkerPool, resolve_workers
from repro.storage.relation import Relation


def test_resolve_workers_reads_only_its_argument():
    assert resolve_workers(None) == 0
    assert resolve_workers(0) == 0
    assert resolve_workers(3) == 3


def test_resolve_workers_rejects_negative():
    with pytest.raises(ConfigurationError):
        resolve_workers(-1)


def test_worker_task_error_propagates_with_traceback():
    edges = Relation("E", ("src", "dst"), [(0, 1)])
    join_plan = plan(bind("E1=E(a,b)", {"E1": edges}))
    with WorkerPool(2) as pool:
        # a task the worker cannot prepare: no columns for alias E1
        bad_task = {
            "plan": pickle.dumps(join_plan),
            "handles": {},
            "shard": 0,
            "signature": ("bad", 0),
            "materialize": False,
            "with_counters": False,
        }
        with pytest.raises(ExecutionError) as excinfo:
            pool.run([bad_task])
    assert "E1" in str(excinfo.value)


def test_dead_worker_raises_not_hangs():
    pool = WorkerPool(1)
    try:
        worker = pool._processes[0]
        worker.terminate()
        worker.join(5)
        with pytest.raises(ExecutionError):
            pool.run([{"shard": 0}], timeout=10)
    finally:
        pool.close()


def test_pool_close_is_idempotent_and_reaps_children():
    pool = WorkerPool(2)
    assert pool.alive()
    pool.close()
    pool.close()
    assert not pool.alive()
    assert not any(p.is_alive() for p in pool._processes)
