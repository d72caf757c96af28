"""The process-wide pools of shard worker processes.

One :class:`WorkerPool` owns K processes, each running
:func:`repro.parallel.worker.worker_main` over a private duplex pipe.
Tasks are dispatched round-robin (shard ``i`` → worker ``i % K``; with
the usual one-task-per-worker fan-out that is an exact assignment) and
results collected in task order, so the merge layer sees a
deterministic sequence regardless of worker finishing order.

Pools belong to the process: each sharded fan-out borrows one from
:data:`IDLE_POOLS`, which forks only when no pool of that size is idle
and closes its idle pools at interpreter exit.

The start method comes from ``REPRO_MP_START`` when set, else ``fork``
where available (cheap on Linux — workers inherit the imported engine)
with ``spawn`` as the portable fallback.  Workers are daemons: an
abandoned pool cannot outlive its parent.  A worker death or task
timeout surfaces as :class:`~repro.errors.ExecutionError` carrying the
worker-side traceback when there is one — plus the parent's
flight-recorder tail (``exc.flight_log``), so the dispatch/collect
history leading up to the failure travels with the report.

Every collected result is stamped with the parent-clock receive time
(``collected_ns``) — the fourth stamp of the NTP-style clock
calibration :mod:`repro.obs.distributed` runs per task round trip.
"""

from __future__ import annotations

import atexit
import multiprocessing as mp
import threading
from contextlib import contextmanager

from repro.core.envflag import env_int, env_str
from repro.errors import ConfigurationError, ExecutionError
from repro.obs.flightrec import FLIGHT_RECORDER
from repro.parallel.worker import worker_main


def execution_error(message: str, **fields) -> ExecutionError:
    """An :class:`ExecutionError` carrying the flight-recorder tail.

    The failure itself is recorded first, so the dump's last line names
    what went wrong; the full tail rides on ``exc.flight_log`` for
    post-mortem reading without bloating ``str(exc)``.
    """
    FLIGHT_RECORDER.record("pool.error", message.splitlines()[0], **fields)
    exc = ExecutionError(message)
    exc.flight_log = FLIGHT_RECORDER.dump_text()
    return exc

#: seconds the parent waits on one shard result before giving up
DEFAULT_TASK_TIMEOUT = 300.0


def resolve_workers(parallel: "int | None") -> int:
    """The effective worker count: explicit arg wins, else ``REPRO_WORKERS``.

    Returns 0 for "no sharding" (the single-process path); explicit
    non-positive values other than 0/None are configuration errors.
    """
    workers = parallel if parallel is not None else env_int("REPRO_WORKERS", 0)
    if workers is None or workers == 0:
        return 0
    if workers < 0:
        raise ConfigurationError(
            f"parallel={workers}: worker count must be >= 1")
    return int(workers)


def start_method() -> str:
    """The multiprocessing start method the pool will use."""
    explicit = env_str("REPRO_MP_START")
    if explicit:
        return explicit
    methods = mp.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


class WorkerPool:
    """K worker processes answering shard tasks over private pipes."""

    def __init__(self, workers: int, method: "str | None" = None):
        if workers < 1:
            raise ConfigurationError(
                f"worker pool needs >= 1 worker, got {workers}")
        self.workers = workers
        self.method = method or start_method()
        context = mp.get_context(self.method)
        self._processes = []
        self._connections = []
        for i in range(workers):
            parent_end, child_end = context.Pipe(duplex=True)
            process = context.Process(target=worker_main, args=(child_end,),
                                      name=f"repro-shard-{i}", daemon=True)
            process.start()
            child_end.close()
            self._processes.append(process)
            self._connections.append(parent_end)
        self._closed = False
        FLIGHT_RECORDER.record("pool.start", workers=workers,
                               method=self.method)

    # ------------------------------------------------------------------
    def run(self, tasks: "list[dict]",
            timeout: "float | None" = None) -> "list[dict]":
        """Dispatch tasks round-robin, return results in task order.

        Task payloads are small (handles and plan decisions), so every
        task is sent before any result is read — the pipe buffer
        comfortably holds the requests while workers stream answers.
        """
        if self._closed:
            raise execution_error("worker pool is closed")
        if timeout is None:
            timeout = float(env_int("REPRO_SHARD_TIMEOUT",
                                    int(DEFAULT_TASK_TIMEOUT)))
        FLIGHT_RECORDER.record("pool.dispatch", tasks=len(tasks),
                               workers=self.workers)
        assignment = [[] for _ in range(self.workers)]
        for position, task in enumerate(tasks):
            assignment[position % self.workers].append(position)
        for worker_id, positions in enumerate(assignment):
            for position in positions:
                if FLIGHT_RECORDER.enabled:
                    FLIGHT_RECORDER.record(
                        "task.send", worker=worker_id,
                        shard=tasks[position].get("shard"))
                try:
                    self._connections[worker_id].send(("run", tasks[position]))
                except (BrokenPipeError, OSError):
                    exitcode = self._processes[worker_id].exitcode
                    self.close()
                    raise execution_error(
                        f"shard worker {worker_id} died (exitcode "
                        f"{exitcode}) before accepting a task",
                        worker=worker_id, exitcode=exitcode) from None
        results: "list[dict | None]" = [None] * len(tasks)
        for worker_id, positions in enumerate(assignment):
            for position in positions:
                results[position] = self._collect(worker_id, timeout)
        failures = [r for r in results if not r.get("ok")]
        if failures:
            first = failures[0]
            detail = first.get("traceback") or first.get("error", "unknown")
            raise execution_error(
                f"shard {first.get('shard')} failed in worker process:\n"
                f"{detail}", shard=first.get("shard"))
        return results  # type: ignore[return-value]

    def _collect(self, worker_id: int, timeout: float) -> dict:
        connection = self._connections[worker_id]
        if not connection.poll(timeout):
            self.close()
            raise execution_error(
                f"shard worker {worker_id} produced no result within "
                f"{timeout:.0f}s (REPRO_SHARD_TIMEOUT)",
                worker=worker_id, timeout_s=timeout)
        try:
            result = connection.recv()
        except (EOFError, OSError):
            exitcode = self._processes[worker_id].exitcode
            self.close()
            raise execution_error(
                f"shard worker {worker_id} died (exitcode {exitcode}) "
                "before answering",
                worker=worker_id, exitcode=exitcode) from None
        if isinstance(result, dict):
            # parent-clock receive stamp: the T1 of the NTP-style clock
            # calibration (repro.obs.distributed.calibrate_clock_offset)
            from repro.joins.results import Stopwatch

            result["collected_ns"] = Stopwatch.now_ns()
            if FLIGHT_RECORDER.enabled:
                FLIGHT_RECORDER.record("task.collect", worker=worker_id,
                                       shard=result.get("shard"),
                                       ok=result.get("ok"))
        return result

    # ------------------------------------------------------------------
    def alive(self) -> bool:
        return (not self._closed
                and all(p.is_alive() for p in self._processes))

    def close(self) -> None:
        """Shut every worker down (idempotent)."""
        if self._closed:
            return
        self._closed = True
        FLIGHT_RECORDER.record("pool.close", workers=self.workers)
        for connection in self._connections:
            try:
                connection.send(("shutdown", None))
            except (OSError, ValueError, BrokenPipeError):
                pass
        for process in self._processes:
            process.join(timeout=5.0)
            if process.is_alive():
                process.terminate()
                process.join(timeout=5.0)
        for connection in self._connections:
            try:
                connection.close()
            except OSError:
                pass

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else f"{self.workers} workers"
        return f"WorkerPool({state}, method={self.method!r})"


class _IdlePools:
    """The process-wide free list of idle pools."""

    def __init__(self):
        self._lock = threading.Lock()
        #: (workers, start method) → idle pools, most recent last
        self._idle: "dict[tuple, list[WorkerPool]]" = {}  # repro: shared[lock=_lock]

    @contextmanager
    def borrow(self, workers: int):
        """A live pool of ``workers`` for one fan-out — an idle one, else
        a newly forked one — given back afterwards unless the fan-out
        failed: a failed fan-out's pipes may be out of step."""
        key = (workers, start_method())
        with self._lock:
            idle = self._idle.get(key)
            pool = idle.pop() if idle else None
        if pool is None or not pool.alive():
            if pool is not None:
                pool.close()  # a worker died while the pool sat idle
            pool = WorkerPool(*key)
        try:
            yield pool
        except BaseException:
            pool.close()
            raise
        with self._lock:
            self._idle.setdefault(key, []).append(pool)

    def close_idle(self) -> None:
        """Close every idle pool."""
        with self._lock:
            pools = [pool for idle in self._idle.values() for pool in idle]
            self._idle.clear()
        for pool in pools:
            pool.close()


#: every sharded fan-out of this process borrows its pool from here
IDLE_POOLS = _IdlePools()
atexit.register(IDLE_POOLS.close_idle)
