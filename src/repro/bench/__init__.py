"""Benchmark harness: timing, reporting, shared experiment plumbing."""

from repro.bench.harness import (
    BUILD_AND_POINT_INDEXES,
    JOIN_INDEXES,
    PREFIX_INDEXES,
    make_sized_index,
)
from repro.bench.reporting import print_series, print_table, save_results
from repro.bench.timer import time_callable

__all__ = [
    "BUILD_AND_POINT_INDEXES",
    "JOIN_INDEXES",
    "PREFIX_INDEXES",
    "make_sized_index",
    "print_series",
    "print_table",
    "save_results",
    "time_callable",
]
