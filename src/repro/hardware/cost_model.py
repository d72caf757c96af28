"""Deterministic cost models for experiments the GIL hides (Fig 16).

**Parallel build scaling.**  The paper's Fig 16 shows Sonic's concurrent
build speedup on a 2×10-core machine: near-linear within one socket, then
a visible NUMA cliff, with key-range locking overhead growing with thread
count.  CPython's GIL serializes real threads, so — per DESIGN.md's
substitution policy — the bench pairs the *real* locking implementation
(which we test for correctness) with this analytic model for the scaling
numbers.  The model is standard:

* per-tuple work ``w`` splits into a parallel part and a serialized
  critical section of fraction ``s`` (the locked insert window);
* lock contention follows an M/M/1-style inflation: with ``p`` threads
  and ``k`` lock stripes, the probability a lock acquisition collides is
  ``(p - 1) / k`` per concurrently-held lock, inflating the critical
  section by ``1 / (1 - min((p-1)·h/k, 0.95))`` where ``h`` is the
  fraction of time a thread holds some stripe lock;
* crossing the socket boundary (more than ``cores_per_socket`` threads)
  multiplies memory-bound work by a NUMA factor (remote-DRAM latency).

The defaults reproduce Fig 16's qualitative shape: ~7–8× at 10 threads,
a dip/flattening right after 10, and the paper's observation that a lock
granularity of 8192 stays within 30 % of the best granularity.

These numbers are **simulated, protocol-only** figures.  Since the
multiprocess sharded execution path landed (:mod:`repro.parallel`,
``join(..., parallel=K)``), the repo's canonical measured parallel
figure is that path's wall-clock scaling (the end-to-end benchmark's
``triangle_sharded`` workload); this model remains only to
extrapolate the *intra-build locking* behaviour of hardware the GIL
hides (thread counts, NUMA), which process sharding does not model.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class ParallelBuildModel:
    """Analytic thread-scaling model for key-range-locked builds."""

    critical_fraction: float = 0.04   # serialized slice of one insert
    lock_hold_fraction: float = 0.25  # share of time a thread holds a stripe
    numa_penalty: float = 1.35        # memory cost multiplier off-socket
    memory_bound_fraction: float = 0.6
    cores_per_socket: int = 10
    total_cores: int = 20

    def speedup(self, threads: int, stripes: int) -> float:
        """Predicted build speedup at ``threads`` workers over 1 worker."""
        if threads < 1:
            raise ConfigurationError(f"threads must be >= 1, got {threads}")
        if stripes < 1:
            raise ConfigurationError(f"stripes must be >= 1, got {stripes}")
        effective_threads = min(threads, self.total_cores)

        # contention-inflated critical section (Amdahl with queueing)
        collision = min((effective_threads - 1) * self.lock_hold_fraction
                        / stripes, 0.95)
        critical = self.critical_fraction / (1.0 - collision)
        parallel = 1.0 - self.critical_fraction

        # NUMA: threads beyond one socket pay remote-memory cost on the
        # memory-bound share of the parallel work
        if effective_threads > self.cores_per_socket:
            off_socket = (effective_threads - self.cores_per_socket) / effective_threads
            memory_factor = 1.0 + off_socket * self.memory_bound_fraction * (
                self.numa_penalty - 1.0)
        else:
            memory_factor = 1.0

        time_parallel = parallel * memory_factor / effective_threads
        time_serial = critical
        return 1.0 / (time_parallel + time_serial)

    def build_time(self, base_seconds: float, threads: int, stripes: int) -> float:
        """Projected wall-clock for a build measured at ``base_seconds`` on 1 thread."""
        return base_seconds / self.speedup(threads, stripes)


def granularity_sweep(model: ParallelBuildModel, capacity: int,
                      granularities: list[int], threads: int) -> dict[int, float]:
    """Predicted speedup per lock granularity (the §3.4.2 tuning claim).

    Larger granularity = fewer stripes = more contention; tiny granularity
    adds per-acquisition overhead (modelled as a fixed tax per lock when
    stripes exceed a cache-friendly bound).
    """
    results = {}
    for granularity in granularities:
        stripes = max(1, capacity // granularity)
        speedup = model.speedup(threads, stripes)
        if stripes > 1 << 16:
            speedup *= 0.85  # lock-array thrashing tax for micro-stripes
        results[granularity] = speedup
    return results


@dataclass(frozen=True)
class CycleCostModel:
    """Convert simulated cache statistics into estimated operation cycles.

    Latencies default to the hierarchy's own table; ``arithmetic_per_touch``
    adds the ALU work (hashing, comparisons) per logical memory touch so
    the model degrades gracefully to compute-bound when everything hits L1.
    """

    arithmetic_per_touch: float = 3.0

    def cycles(self, hierarchy, touches: int) -> float:
        return hierarchy.estimated_cycles() + self.arithmetic_per_touch * touches

    def cycles_per_operation(self, hierarchy, touches: int,
                             operations: int) -> float:
        if operations <= 0:
            raise ConfigurationError("operations must be > 0")
        return self.cycles(hierarchy, touches) / operations
