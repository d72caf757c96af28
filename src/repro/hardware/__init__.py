"""Simulated microarchitecture: caches, memory traces, cost models."""

from repro.hardware.cache import CacheHierarchy, xeon_silver_4114
from repro.hardware.cost_model import (
    CycleCostModel,
    ParallelBuildModel,
    granularity_sweep,
)
from repro.hardware.memtrace import MemoryTracer

__all__ = [
    "CacheHierarchy",
    "CycleCostModel",
    "MemoryTracer",
    "ParallelBuildModel",
    "granularity_sweep",
    "xeon_silver_4114",
]
