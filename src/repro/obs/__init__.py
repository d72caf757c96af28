"""repro.obs — metrics counters, span tracing, and join profiles.

The observability layer for the execution stack: cheap counters
(:class:`~repro.obs.metrics.Metrics`), nested spans with Chrome
``trace_event`` export (:class:`~repro.obs.trace.Tracer`), and the
EXPLAIN ANALYZE report (:class:`JoinProfile`) that
``join(..., profile=True)`` attaches to its
:class:`~repro.joins.results.JoinResult`.  A caller holds a
:class:`JoinObserver` (``join(..., obs=...)``) and reads a
:class:`JoinProfile`; the instruments behind them are imported from
their modules.

Import discipline: this package never imports ``repro.joins`` (or any
execution module) at module level — ``joins`` imports ``obs``, not the
other way round.  The only crossing is the lazy ``Stopwatch.now_ns``
clock lookup inside the tracer.
"""

from repro.obs.observer import JoinObserver
from repro.obs.profile import JoinProfile

__all__ = ["JoinObserver", "JoinProfile"]
