"""Timing utilities for the benchmark harness."""

from __future__ import annotations

import gc
import time
from collections.abc import Callable
from dataclasses import dataclass


@dataclass(frozen=True)
class Timing:
    """Aggregated wall-clock measurements of one benchmarked callable."""

    best_seconds: float
    mean_seconds: float
    repeats: int


def time_callable(fn: Callable[[], object], repeats: int = 3,
                  disable_gc: bool = True) -> Timing:
    """Best-of-``repeats`` wall-clock timing of ``fn`` (GC paused)."""
    samples = []
    gc_was_enabled = gc.isenabled()
    if disable_gc:
        gc.disable()
    try:
        for _ in range(max(repeats, 1)):
            start = time.perf_counter()
            fn()
            samples.append(time.perf_counter() - start)
    finally:
        if disable_gc and gc_was_enabled:
            gc.enable()
    return Timing(best_seconds=min(samples),
                  mean_seconds=sum(samples) / len(samples),
                  repeats=len(samples))
