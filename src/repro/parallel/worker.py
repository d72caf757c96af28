"""The shard worker: runs one shard of a sharded plan per task.

Everything in this module runs **inside a worker process**.  The
process boundary is deliberately narrow: a task carries shared-memory
column handles and the parent's own frontier plan with its sharding
and optimizer estimate stripped — never a live trie, relation, driver,
or lock.  The worker maps the columns, rebuilds per-shard relations,
and runs the parent's plan through the **same** prepare loop and
:class:`~repro.engine.prepared.PreparedJoin` a single-process run takes
(:mod:`repro.engine.pipeline`): no bind, no re-plan, so each shard
joins by exactly the parent's decisions — its total order, seed rule
and dictionary-coded specs — which is what makes the
shard-equivalence property tests meaningful.

Entry points (:func:`worker_main`, :func:`run_shard_task`) are plain
module-level functions that capture no module state, so they survive
both ``fork`` and ``spawn`` start methods and pickle cleanly.

Workers keep a small LRU of prepared state keyed on the task's
signature — the plan's bytes, the shard and its segment names:
re-executing an unchanged sharded plan (the
session warm path) skips the attach/build work the same way the
parent's index cache does.  A one-shot task (a cold ``join()``)
bypasses it and unmaps its segments before answering.
"""

from __future__ import annotations

import pickle
import threading
import traceback
from collections import OrderedDict

import numpy as np

from repro.parallel.shm import ColumnHandle, attach_array
from repro.storage.relation import Relation
from repro.storage.schema import Schema

#: prepared-state entries one worker keeps alive (per process, LRU)
STATE_CACHE_ENTRIES = 8


class _ColumnRows:
    """The ``Relation._rows`` slot of a worker-side relation: a length.

    A shard's relations are read through their columns only — the
    frontier builds its tries from a snapshot of them — so this holds
    no rows, and any row access fails loudly.
    """

    __slots__ = ("_length",)

    def __init__(self, length: int):
        self._length = length

    def __len__(self) -> int:
        return self._length


def relation_from_handles(name: str, attributes: "tuple[str, ...]",
                          handles: "tuple[ColumnHandle, ...]",
                          ) -> "tuple[Relation, list]":
    """Reconstruct one shard relation from its column handles.

    Returns the relation plus the attached ``SharedMemory`` objects,
    which must stay referenced for as long as the relation is used
    (the arrays borrow their buffers).
    """
    arrays = []
    attachments = []
    for handle in handles:
        array, shm = attach_array(handle)
        arrays.append(array)
        if shm is not None:
            attachments.append(shm)
    length = handles[0].length if handles else 0
    relation = Relation.__new__(Relation)
    relation.name = name
    relation.schema = Schema(attributes)
    relation._mutlock = threading.Lock()
    relation._rows = _ColumnRows(length)
    relation._columns = {}
    relation._arrays = {i: array for i, array in enumerate(arrays)}
    relation._dtype_classes = {
        i: ("int64" if array.dtype == np.int64 else "object")
        for i, array in enumerate(arrays)
    }
    relation._version = [0]
    return relation, attachments


def _prepare_task(task: dict, obs=None) -> "tuple[object, list]":
    """The prepare stage for one shard; returns prepared state.

    The shard runs its parent's plan — no bind, no plan, no sharding —
    through the same prepare loop a single-process run takes.  ``obs``
    (the per-task observer, when the run is profiled) records the
    shard's ``build_index`` spans in the per-shard trace the parent
    will rebase — a warm re-execution skips this function entirely,
    which is exactly why its profile carries no build spans.
    """
    # imported here, not at module level: the engine pipeline is the
    # parent-facing layer above this package, and the import must stay
    # one-directional (pipeline → runner → worker) at module scope
    from repro.engine.ir import BoundQuery
    from repro.engine.pipeline import prepare

    join_plan = pickle.loads(task["plan"])
    relations = {}
    attachments: list = []
    for atom in join_plan.query.atoms:
        relation, attached = relation_from_handles(
            atom.alias, atom.attributes, task["handles"][atom.alias])
        relations[atom.alias] = relation
        attachments.extend(attached)
    prepared = prepare(BoundQuery(join_plan.query, relations), join_plan,
                       None, obs)
    return prepared, attachments


def _shard_trace_path(out: str, shard: int) -> str:
    """A per-shard variant of the caller's ``REPRO_TRACE_OUT`` path.

    Every task carries the same path; writing it verbatim would have K
    processes clobbering one file, so
    ``trace.json`` becomes ``trace.shard0.json`` etc.  (The parent
    separately writes the *merged* multi-pid document to the original
    path.)
    """
    from pathlib import PurePath

    path = PurePath(out)
    suffix = path.suffix or ".json"
    return str(path.with_name(f"{path.stem}.shard{shard}{suffix}"))


def run_shard_task(task: dict, state_cache: "OrderedDict | None" = None,
                   ) -> dict:
    """Execute one shard task; returns a picklable result dict.

    ``state_cache`` (signature → prepared state) lets a long-lived
    worker reuse the attach/build work across repeat executions of the
    same sharded plan; evicted entries close their shared-memory
    attachments.  Pass ``None`` for one-shot execution: the task's
    attachments are then closed before the answer is returned.

    The task's ``with_counters`` turns the worker-side observer on; the
    parent sets it when it ran profiled or the caller's environment
    holds ``REPRO_PROFILE`` / ``REPRO_TRACE_OUT`` (the latter rides in
    ``trace_out``).  A profiled shard answers with its own profile
    (:meth:`~repro.obs.profile.JoinProfile.as_dict`, carrying its pid)
    and a ``clock``: its tracer's origin and the calibration stamps the
    parent rebases its spans by; a trace path is honored per shard
    (``trace.json`` → ``trace.shard0.json``), never clobbered.
    """
    from repro.joins.results import Stopwatch
    from repro.obs.observer import JoinObserver, NULL_OBSERVER

    received_ns = Stopwatch.now_ns()
    trace = task.get("trace") or {}
    with_obs = task.get("with_counters", False)
    observer = JoinObserver() if with_obs else NULL_OBSERVER

    signature = task["signature"]
    entry = state_cache.get(signature) if state_cache is not None else None
    if entry is not None:
        state_cache.move_to_end(signature)
    else:
        entry = _prepare_task(task, obs=observer if with_obs else None)
        if state_cache is not None:
            state_cache[signature] = entry
            while len(state_cache) > STATE_CACHE_ENTRIES:
                _, (_, old_attachments) = state_cache.popitem(last=False)
                for shm in old_attachments:
                    shm.close()
    prepared, attachments = entry

    trace_out = (_shard_trace_path(task["trace_out"], task["shard"])
                 if task.get("trace_out") and with_obs else None)
    result = prepared.execute(materialize=task["materialize"], obs=observer,
                              trace_out=trace_out)
    metrics = result.metrics
    response = {
        "ok": True,
        "shard": task["shard"],
        "count": result.count,
        "rows": result.rows if task["materialize"] else None,
        "attributes": tuple(result.attributes),
        "algorithm": metrics.algorithm,
        "lookups": metrics.lookups,
        "intermediates": metrics.intermediate_tuples,
    }
    if with_obs:
        response["profile"] = result.profile.as_dict()
        response["clock"] = {
            "origin_ns": observer.tracer.origin_ns,
            "issued_ns": trace.get("issued_ns"),
            "received_ns": received_ns,
            "responded_ns": Stopwatch.now_ns(),
        }
    if state_cache is None:
        del entry, prepared, result  # the arrays borrow the mappings
        for shm in attachments:
            shm.close()
    return response


def worker_main(conn) -> None:
    """One worker process's request loop (the pool's process target).

    Receives ``("run", task)`` messages on ``conn``, answers with
    result dicts, and exits on ``("shutdown", None)`` or a closed pipe.
    A failing task is reported (with its traceback) instead of killing
    the worker; only the connection itself failing ends the loop.
    """
    state_cache: OrderedDict = OrderedDict()
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            if not message or message[0] == "shutdown":
                break
            _, task = message
            try:
                response = run_shard_task(
                    task, None if task.get("one_shot") else state_cache)
            except BaseException as exc:  # report, don't die
                response = {
                    "ok": False,
                    "shard": task.get("shard"),
                    "error": f"{type(exc).__name__}: {exc}",
                    "traceback": traceback.format_exc(),
                }
            conn.send(response)
    finally:
        for _, attachments in state_cache.values():
            for shm in attachments:
                shm.close()
        conn.close()
