"""Set-associative LRU cache simulator (the Figs 10–12 substrate).

Python wall-clock cannot resolve the L1/L2/L3 effects the paper's §5.13
measures, so — per DESIGN.md's substitution policy — we make the claims
testable with a trace-driven cache simulator: the Sonic index emits the
synthetic address of every key/patch-bit/patch-key/payload touch (see
:mod:`repro.hardware.memtrace`), the simulator replays them through a
three-level hierarchy shaped like the paper's Xeon Silver 4114 (32 KB L1,
256 KB L2, 25.6 MB L3, 64 B lines), and the cost model converts hit/miss
counts into estimated cycles.

Each level is write-allocate, inclusive-enough-for-simulation: an access
missing at level *i* is installed at every level from *i* upwards.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


class CacheLevel:
    """One set-associative cache level with true-LRU replacement."""

    def __init__(self, name: str, size_bytes: int, associativity: int,
                 line_bytes: int = 64):
        if size_bytes % (associativity * line_bytes):
            raise ConfigurationError(
                f"{name}: size {size_bytes} not divisible by "
                f"associativity*line ({associativity}*{line_bytes})"
            )
        self.name = name
        self.size_bytes = size_bytes
        self.associativity = associativity
        self.line_bytes = line_bytes
        self.num_sets = size_bytes // (associativity * line_bytes)
        # each set is an LRU-ordered list of tags (most recent last)
        self._sets: list[list[int]] = [[] for _ in range(self.num_sets)]
        self.stats = CacheStats()

    def access(self, line_address: int) -> bool:
        """Touch one cache line; returns True on hit."""
        set_index = line_address % self.num_sets
        tag = line_address // self.num_sets
        lru = self._sets[set_index]
        try:
            lru.remove(tag)
            lru.append(tag)
            self.stats.hits += 1
            return True
        except ValueError:
            self.stats.misses += 1
            lru.append(tag)
            if len(lru) > self.associativity:
                lru.pop(0)
            return False

    def reset_stats(self) -> None:
        self.stats = CacheStats()

    def flush(self) -> None:
        self._sets = [[] for _ in range(self.num_sets)]
        self.reset_stats()


@dataclass
class HierarchyStats:
    """Per-level hit counts of one simulation run."""

    level_hits: dict[str, int] = field(default_factory=dict)
    memory_accesses: int = 0
    total_accesses: int = 0

    def as_row(self) -> dict[str, object]:
        row: dict[str, object] = dict(self.level_hits)
        row["memory"] = self.memory_accesses
        row["accesses"] = self.total_accesses
        return row


class CacheHierarchy:
    """A stack of cache levels backed by main memory."""

    #: per-hit latencies in cycles (L1/L2/L3/DRAM), Skylake-SP-like
    DEFAULT_LATENCIES = {"L1": 4, "L2": 14, "L3": 50, "memory": 200}

    def __init__(self, levels: list[CacheLevel] | None = None,
                 latencies: dict[str, int] | None = None):
        if levels is None:
            levels = xeon_silver_4114()
        self.levels = levels
        self.latencies = dict(self.DEFAULT_LATENCIES)
        if latencies:
            self.latencies.update(latencies)
        self._line = levels[0].line_bytes if levels else 64
        self.stats = HierarchyStats(
            level_hits={level.name: 0 for level in self.levels})

    def access(self, address: int, size: int = 8) -> str:
        """Access ``size`` bytes at ``address``; returns the serving level."""
        first = address // self._line
        last = (address + max(size, 1) - 1) // self._line
        served = "memory"
        for line in range(first, last + 1):
            served = self._access_line(line)
        return served

    def _access_line(self, line: int) -> str:
        self.stats.total_accesses += 1
        missed: list[CacheLevel] = []
        for level in self.levels:
            if level.access(line):
                self.stats.level_hits[level.name] += 1
                return level.name
            missed.append(level)
        self.stats.memory_accesses += 1
        return "memory"

    def estimated_cycles(self) -> int:
        """Latency-weighted cost of all accesses so far."""
        total = 0
        for name, hits in self.stats.level_hits.items():
            total += hits * self.latencies.get(name, 100)
        total += self.stats.memory_accesses * self.latencies["memory"]
        return total

    def reset(self) -> None:
        for level in self.levels:
            level.flush()
        self.stats = HierarchyStats(
            level_hits={level.name: 0 for level in self.levels})


def xeon_silver_4114(line_bytes: int = 64) -> list[CacheLevel]:
    """The paper's evaluation machine (§5.1): 32 KB L1, 256 KB L2, 25.6 MB L3.

    Sized down is unnecessary — capacities are what produce the Fig 11
    cliffs, so they are kept faithful.
    """
    return [
        CacheLevel("L1", 32 * 1024, 8, line_bytes),
        CacheLevel("L2", 256 * 1024, 8, line_bytes),
        CacheLevel("L3", 25600 * 1024, 16, line_bytes),
    ]
