"""Sonic — the paper's core contribution (§3) and its supporting pieces."""

from repro.core.adapter import IndexAdapter
from repro.core.config import SonicConfig
from repro.core.locks import KeyRangeLockManager
from repro.core.memory import sonic_bytes_per_tuple, sonic_space_estimate
from repro.core.parallel import ParallelSonicBuilder
from repro.core.sonic import SonicIndex

__all__ = [
    "IndexAdapter",
    "KeyRangeLockManager",
    "ParallelSonicBuilder",
    "SonicConfig",
    "SonicIndex",
    "sonic_bytes_per_tuple",
    "sonic_space_estimate",
]
