"""The process-wide worker pools: reuse, isolation, and failure.

Every sharded execution borrows an idle pool of its worker count from
:data:`repro.parallel.pool.IDLE_POOLS` and gives it back when its
fan-out succeeded.  These tests pin the contracts that sharing creates:

* cold ``join(parallel=K)`` calls reuse one pool instead of forking;
* its one-shot tasks leave nothing mapped in the long-lived workers;
* concurrent executions of one prepared join never share pipes;
* a killed worker, a full ``/dev/shm`` and a stalled worker each end
  in an :class:`~repro.errors.ExecutionError` that leaks no segment,
  keeps the broken pool out of the free list, and leaves the next
  sharded join answering correctly;
* no worker outlives its interpreter.
"""

import errno
import glob
import os
import random
import signal
import subprocess
import sys
import textwrap
import threading
import time
from multiprocessing import shared_memory

import pytest

from repro.engine import Session
from repro.errors import ExecutionError
from repro.joins import join
from repro.parallel import SEGMENT_PREFIX, start_method
from repro.parallel import worker
from repro.parallel.pool import IDLE_POOLS
from repro.planner.query import parse_query
from repro.storage.relation import Relation

TRIANGLE = parse_query("E1=E(a,b), E2=E(b,c), E3=E(c,a)")

needs_fork = pytest.mark.skipif(
    start_method() != "fork",
    reason="injects faults by patching the parent before the pool forks")


@pytest.fixture(scope="module")
def relations():
    rng = random.Random(11)
    rows = {(rng.randrange(60), rng.randrange(60)) for _ in range(600)}
    edges = Relation("E", ("src", "dst"), rows)
    return {"E1": edges, "E2": edges, "E3": edges}


@pytest.fixture(scope="module")
def truth(relations):
    return join(TRIANGLE, relations).count


@pytest.fixture
def no_idle_pools():
    """Start and end with an empty free list: the next sharded call
    forks a pool of the code and environment as the test left them."""
    IDLE_POOLS.close_idle()
    yield
    IDLE_POOLS.close_idle()


def idle_pools() -> list:
    return [pool for pools in IDLE_POOLS._idle.values() for pool in pools]


def segments() -> set:
    """This process's segments (the name carries the creator's pid)."""
    return set(glob.glob(f"/dev/shm/{SEGMENT_PREFIX}{os.getpid():x}_*"))


def mapped_segments(pid: int) -> list:
    with open(f"/proc/{pid}/maps") as maps:
        return [line for line in maps if SEGMENT_PREFIX in line]


# ----------------------------------------------------------------------
# reuse
# ----------------------------------------------------------------------
@pytest.mark.skipif(not os.path.isdir("/proc/self"),
                    reason="reads worker mappings from /proc")
def test_cold_joins_share_one_pool_and_leave_nothing_mapped(
        relations, truth, no_idle_pools):
    before = segments()
    for _ in range(20):
        assert join(TRIANGLE, relations, parallel=2).count == truth
    (pool,) = idle_pools()
    assert pool.alive()
    # one-shot tasks bypass the workers' state cache and unmap their
    # segments before answering; the segments are then unlinked
    for process in pool._processes:
        assert mapped_segments(process.pid) == []
    assert segments() == before


def test_warm_execution_reuses_the_cold_pool(relations, truth,
                                             no_idle_pools):
    assert join(TRIANGLE, relations, parallel=2).count == truth
    (pool,) = idle_pools()
    with Session(dict(relations)) as session:
        with session.prepare(TRIANGLE, parallel=2) as prepared:
            for _ in range(3):
                assert prepared.execute().count == truth
    assert idle_pools() == [pool]


def test_concurrent_executions_of_one_prepared_join(relations, truth,
                                                    no_idle_pools):
    # two threads on one pool's pipes used to interleave their messages
    # (UnpicklingError); each execution now borrows a pool of its own
    counts, errors = [], []

    def reader(prepared):
        for _ in range(30):
            try:
                counts.append(prepared.execute().count)
            except Exception as exc:
                errors.append(exc)

    with Session(dict(relations)) as session:
        with session.prepare(TRIANGLE, parallel=2) as prepared:
            threads = [threading.Thread(target=reader, args=(prepared,))
                       for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
    assert errors == []
    assert counts == [truth] * 120
    assert 1 <= len(idle_pools()) <= 4


# ----------------------------------------------------------------------
# fault injection on the shared path
# ----------------------------------------------------------------------
def assert_failed_cleanly(excinfo, before: set) -> None:
    assert excinfo.value.flight_log
    assert "pool.error" in excinfo.value.flight_log
    assert segments() == before
    # the broken pool was the only one: nothing went back to the list
    assert idle_pools() == []


def assert_next_join_answers(relations, truth) -> None:
    assert join(TRIANGLE, relations, parallel=2).count == truth
    (pool,) = idle_pools()
    assert pool.alive()


@needs_fork
def test_killed_worker_mid_shard(relations, truth, no_idle_pools,
                                 monkeypatch):
    real = worker.run_shard_task

    def killed(task, state_cache=None):
        if task["shard"] == 0:
            os.kill(os.getpid(), signal.SIGKILL)
        return real(task, state_cache)

    before = segments()
    with monkeypatch.context() as patch:
        patch.setattr(worker, "run_shard_task", killed)
        with pytest.raises(ExecutionError, match="died") as excinfo:
            join(TRIANGLE, relations, parallel=2)
    assert_failed_cleanly(excinfo, before)
    assert_next_join_answers(relations, truth)


# E1 partitions on its first column: 2 shards × 2 columns = segments
# 1-4; the 2nd fails inside that partitioning, the 5th in E2's, after
# E1's is complete
@pytest.mark.parametrize("fail_at", [2, 5])
def test_shared_memory_exhaustion(relations, truth, no_idle_pools,
                                  monkeypatch, fail_at):
    real = shared_memory.SharedMemory
    created = []

    def exhausted(*args, create=False, **kwargs):
        if create:
            created.append(True)
            if len(created) == fail_at:
                raise OSError(errno.ENOSPC, "No space left on device")
        return real(*args, create=create, **kwargs)

    before = segments()
    with monkeypatch.context() as patch:
        patch.setattr(shared_memory, "SharedMemory", exhausted)
        with pytest.raises(ExecutionError, match="shared memory") as excinfo:
            join(TRIANGLE, relations, parallel=2)
    assert len(created) == fail_at
    assert_failed_cleanly(excinfo, before)
    assert_next_join_answers(relations, truth)


@needs_fork
def test_stalled_worker_times_out(relations, truth, no_idle_pools,
                                  monkeypatch):
    real = worker.run_shard_task

    def stalled(task, state_cache=None):
        time.sleep(3)
        return real(task, state_cache)

    before = segments()
    with monkeypatch.context() as patch:
        patch.setattr(worker, "run_shard_task", stalled)
        patch.setenv("REPRO_SHARD_TIMEOUT", "1")
        with pytest.raises(ExecutionError, match="no result") as excinfo:
            join(TRIANGLE, relations, parallel=2)
    assert_failed_cleanly(excinfo, before)
    assert_next_join_answers(relations, truth)


# ----------------------------------------------------------------------
# lifetime
# ----------------------------------------------------------------------
@pytest.mark.slow
@pytest.mark.skipif(not os.path.isdir("/proc/self"),
                    reason="checks worker pids in /proc")
def test_no_worker_survives_interpreter_exit():
    script = textwrap.dedent("""
        from repro.joins import join
        from repro.parallel.pool import IDLE_POOLS
        from repro.storage.relation import Relation

        edges = Relation("E", ("s", "t"), [(0, 1), (1, 2), (2, 0)])
        rels = {"E1": edges, "E2": edges, "E3": edges}
        assert join("E1=E(a,b), E2=E(b,c), E3=E(c,a)", rels,
                    parallel=2).count == 3
        print(" ".join(str(process.pid)
                       for pools in IDLE_POOLS._idle.values()
                       for pool in pools for process in pool._processes))
    """)
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, (
                   os.path.join(os.path.dirname(__file__), "..", "..",
                                "src"),
                   os.environ.get("PYTHONPATH")))))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60,
                          check=True)
    pids = [int(pid) for pid in done.stdout.split()]
    assert len(pids) == 2

    def running(pid: int) -> bool:
        try:
            with open(f"/proc/{pid}/status") as status:
                state = next(line for line in status
                             if line.startswith("State:"))
        except (FileNotFoundError, ProcessLookupError):
            return False
        return "Z" not in state.split()[1]

    deadline = time.monotonic() + 5
    while any(running(pid) for pid in pids) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not [pid for pid in pids if running(pid)]
