"""repro.obs — metrics counters, span tracing, and join profiles.

The observability layer for the execution stack: cheap counters
(:class:`Metrics`), nested spans with Chrome ``trace_event`` export
(:class:`Tracer`), and the EXPLAIN ANALYZE report
(:class:`JoinProfile`) that ``join(..., profile=True)`` attaches to its
:class:`~repro.joins.results.JoinResult`.

Import discipline: this package never imports ``repro.joins`` (or any
execution module) at module level — ``joins`` imports ``obs``, not the
other way round.  The only crossing is the lazy ``Stopwatch.now_ns``
clock lookup inside :class:`Tracer`.
"""

from repro.obs.distributed import (
    TraceContext,
    calibrate_clock_offset,
    rebase_spans,
)
from repro.obs.flightrec import FLIGHT_RECORDER, FlightRecorder
from repro.obs.metrics import (
    Metrics,
    MetricsRegistry,
    METRICS_REGISTRY,
    NullMetrics,
    NULL_METRICS,
)
from repro.obs.observer import JoinObserver, LevelStats, NULL_OBSERVER
from repro.obs.profile import (
    JoinProfile,
    LevelProfile,
    ProfileSchemaError,
    SCHEMA_VERSION,
    build_profile,
    validate_profile,
)
from repro.obs.trace import NullTracer, NULL_TRACER, Tracer

__all__ = [
    "Metrics",
    "MetricsRegistry",
    "METRICS_REGISTRY",
    "NullMetrics",
    "NULL_METRICS",
    "FlightRecorder",
    "FLIGHT_RECORDER",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "JoinObserver",
    "LevelStats",
    "NULL_OBSERVER",
    "JoinProfile",
    "LevelProfile",
    "ProfileSchemaError",
    "SCHEMA_VERSION",
    "build_profile",
    "validate_profile",
    "TraceContext",
    "calibrate_clock_offset",
    "rebase_spans",
]
