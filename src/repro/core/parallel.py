"""Parallel Sonic build (§3.4.2, Fig 16).

The paper builds Sonic concurrently with key-range locks per level.  This
module reproduces the scheme with real threads: the input is processed by
``num_threads`` workers, each insert acquiring

* the stripe lock of its first-level home slot,
* the allocator lock of a level whenever a fresh bucket is reserved,
* the stripe lock of the designated bucket at every deeper level,

one lock at a time (locks are released before descending, so lock order is
strictly by level and deadlock-free).

CPython's GIL serializes the actual memory writes, so wall-clock speedup
is not observable here; what *is* faithfully reproduced and measured is
the locking protocol (correctness under concurrency is tested by building
the same relation sequentially and in parallel and comparing contents) and
the contention profile (lock acquisitions per stripe), which
:mod:`repro.hardware.cost_model` converts into simulated thread scaling.
This module is therefore **protocol-only**: the repo's canonical
measured parallel numbers are the multiprocess sharded execution path
(:mod:`repro.parallel`, ``join(..., parallel=K)``), which escapes the
GIL entirely and whose wall-clock scaling the end-to-end benchmark's
``triangle_sharded`` workload measures.  See DESIGN.md §1.
"""

from __future__ import annotations

import threading
from collections.abc import Sequence

from repro.core.hashing import hash_key
from repro.core.locks import DEFAULT_GRANULARITY, KeyRangeLockManager
from repro.core.sonic import SonicIndex
from repro.errors import ConfigurationError


class ParallelSonicBuilder:
    """Builds a :class:`SonicIndex` with ``num_threads`` workers."""

    def __init__(self, index: SonicIndex, num_threads: int = 4,
                 granularity: int = DEFAULT_GRANULARITY):
        if num_threads < 1:
            raise ConfigurationError(f"num_threads must be >= 1, got {num_threads}")
        self.index = index
        self.num_threads = num_threads
        self.locks = KeyRangeLockManager(
            num_levels=index.num_levels,
            capacity=index.config.capacity,
            granularity=granularity,
        )
        self._errors: list[BaseException] = []

    def build(self, rows: Sequence[tuple]) -> SonicIndex:
        """Insert every row using the worker pool; returns the built index."""
        if self.num_threads == 1:
            for row in rows:
                self._locked_insert(row)
            return self.index

        chunks = [rows[i::self.num_threads] for i in range(self.num_threads)]
        workers = [
            threading.Thread(target=self._worker, args=(chunk,), daemon=True)
            for chunk in chunks if chunk
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        if self._errors:
            raise self._errors[0]
        return self.index

    def _worker(self, rows: Sequence[tuple]) -> None:
        try:
            for row in rows:
                self._locked_insert(row)
        except BaseException as exc:  # propagate to the coordinating thread
            self._errors.append(exc)

    def _locked_insert(self, row: tuple) -> None:
        """One insert under the key-range protocol.

        The paper's protocol locks the touched range at each level; the
        Python rendering locks the range of the *home* slot for the whole
        per-level operation.  Because a single lock covers ``granularity``
        consecutive slots and probe chains are kept far shorter than that
        by overallocation, a chain crossing a stripe boundary is rare; the
        equivalence tests in ``tests/core/test_parallel.py`` verify the
        outcome matches a sequential build exactly.
        """
        index = self.index
        home = hash_key(row[0], index.config.seed) % index.config.capacity
        lock = self.locks.lock_for(0, home)
        with lock:
            # Sonic's insert descends through all levels; serialize the
            # descent under the first-level stripe plus the per-level
            # allocator locks (taken inside insert via the allocator shim).
            index.insert(row)

    def contention_profile(self) -> dict[str, float]:
        """Lock statistics for the Fig 16 cost model."""
        total = self.locks.total_acquisitions()
        return {
            "acquisitions": float(total),
            "stripes": float(self.locks.stripes_per_level),
            "granularity": float(self.locks.granularity),
            "threads": float(self.num_threads),
        }


def parallel_build(rows: Sequence[tuple], arity: int, num_threads: int,
                   config=None, granularity: int = DEFAULT_GRANULARITY,
                   ) -> tuple[SonicIndex, dict[str, float]]:
    """Convenience wrapper: build a Sonic index in parallel, return profile."""
    index = SonicIndex(arity, config=config)
    builder = ParallelSonicBuilder(index, num_threads=num_threads,
                                   granularity=granularity)
    builder.build(rows)
    return index, builder.contention_profile()
