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
from repro.joins import join
from repro.parallel.pool import WorkerPool, resolve_workers, start_method
from repro.planner.query import parse_query
from repro.storage.relation import Relation

TRIANGLE = parse_query("E1=E(a,b), E2=E(b,c), E3=E(c,a)")


def test_resolve_workers_precedence(monkeypatch):
    monkeypatch.delenv("REPRO_WORKERS", raising=False)
    assert resolve_workers(None) == 0
    assert resolve_workers(3) == 3
    monkeypatch.setenv("REPRO_WORKERS", "2")
    assert resolve_workers(None) == 2
    assert resolve_workers(4) == 4  # explicit beats env
    assert resolve_workers(0) == 0  # explicit zero disables


def test_resolve_workers_rejects_negative():
    with pytest.raises(ConfigurationError):
        resolve_workers(-1)


def test_resolve_workers_rejects_bad_env(monkeypatch):
    monkeypatch.setenv("REPRO_WORKERS", "many")
    with pytest.raises(ValueError, match="REPRO_WORKERS"):
        resolve_workers(None)


def test_start_method_env_override(monkeypatch):
    monkeypatch.setenv("REPRO_MP_START", "spawn")
    assert start_method() == "spawn"


def test_env_workers_drives_join(monkeypatch):
    monkeypatch.setenv("REPRO_WORKERS", "2")
    edges = Relation("E", ("src", "dst"), [(0, 1), (1, 2), (2, 0)])
    relations = {"E1": edges, "E2": edges, "E3": edges}
    result = join(TRIANGLE, relations, profile=True)
    assert result.count == 3
    assert result.profile.counters["parallel.executions"] == 1


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
