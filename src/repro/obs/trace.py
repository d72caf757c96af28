"""Span tracing with JSON and Chrome ``trace_event`` exporters.

A :class:`Tracer` records *spans* — named, nested intervals on the
monotonic clock — via a context-manager API::

    tracer = Tracer()
    with tracer.span("build_indexes"):
        with tracer.span("build_index", alias="E1"):
            adapter.build()

Spans use :meth:`repro.joins.results.Stopwatch.now_ns` as their clock —
the same ``time.perf_counter_ns`` source every join driver times its
phases with, so span durations and ``JoinMetrics`` timings are directly
comparable.  (The import is lazy to keep ``repro.obs`` import-cycle-free:
``joins`` imports ``obs`` at module level, not vice versa.)

Exports:

* :meth:`Tracer.as_dicts` — plain span dicts (microsecond timestamps),
  embedded in the :class:`~repro.obs.profile.JoinProfile` JSON;
* :meth:`Tracer.to_chrome` — a Chrome ``trace_event`` document (complete
  ``"X"`` events) loadable in ``chrome://tracing`` / Perfetto.

:data:`NULL_TRACER` is the disabled twin: ``span()`` hands back one
shared no-op context manager, so a disabled trace point costs a method
call and nothing else.

A tracer shared across threads stays coherent: the *nesting stack* is
thread-local (span depth is a property of one thread's call stack, so
two threads tracing concurrently each see their own nesting), while the
finished-span list is appended under a small lock — one locked append
per span close, never per tuple.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path


def chrome_event(span: dict, pid: int = 1) -> dict:
    """One exported span dict as a complete (``"X"``) Chrome event on
    process row ``pid``."""
    return {
        "name": span["name"],
        "ph": "X",
        "ts": span["ts_us"],
        "dur": span["dur_us"],
        "pid": pid,
        "tid": 1,
        "cat": "repro",
        "args": span.get("args", {}),
    }


class _SpanHandle:
    """One live span; records itself on the tracer at ``__exit__``."""

    __slots__ = ("_tracer", "name", "args", "_start", "_depth")

    def __init__(self, tracer: "Tracer", name: str, args: dict):
        self._tracer = tracer
        self.name = name
        self.args = args

    def __enter__(self) -> "_SpanHandle":
        tracer = self._tracer
        stack = tracer._stack
        self._depth = len(stack)
        stack.append(self.name)
        self._start = tracer._clock()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        tracer = self._tracer
        end = tracer._clock()
        tracer._stack.pop()
        tracer._record(self.name, self._start, end - self._start,
                       self._depth, self.args)
        return False


class Tracer:
    """Collects nested spans against the shared monotonic clock."""

    enabled = True

    __slots__ = ("_spans", "_local", "_clock", "_origin", "_lock")

    def __init__(self, clock=None):
        if clock is None:
            from repro.joins.results import Stopwatch
            clock = Stopwatch.now_ns
        self._clock = clock
        self._origin: int = clock()
        self._lock = threading.Lock()
        #: finished spans as (name, start_ns, duration_ns, depth, args)
        self._spans: list[tuple] = []   # repro: shared[lock=_lock]
        #: per-thread nesting stacks (depth belongs to one call stack)
        self._local = threading.local()

    @property
    def _stack(self) -> list:
        """This thread's nesting stack (created empty on first use)."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def origin_ns(self) -> int:
        """The clock reading at construction — the zero of every exported
        timestamp.  Cross-process trace assembly
        (:mod:`repro.obs.distributed`) rebases worker spans against the
        parent tracer's origin."""
        return self._origin

    # ------------------------------------------------------------------
    def span(self, name: str, **args) -> _SpanHandle:
        """A context manager timing one named span; ``args`` is attached
        verbatim to the exported event."""
        return _SpanHandle(self, name, args)

    def add_span(self, name: str, start_ns: int, duration_ns: int,
                 **args) -> None:
        """Record an already-measured interval as a span.

        The escape hatch for loops that time with a plain
        :class:`~repro.joins.results.Stopwatch` and only want to pay the
        span bookkeeping when tracing is on (the ``tracer.enabled``
        pattern).
        """
        self._record(name, start_ns, duration_ns, len(self._stack), args)

    def _record(self, name: str, start_ns: int, duration_ns: int,
                depth: int, args: dict) -> None:
        with self._lock:
            self._spans.append((name, start_ns, duration_ns, depth, args))

    # ------------------------------------------------------------------
    # Exports
    # ------------------------------------------------------------------
    def as_dicts(self) -> list[dict]:
        """Finished spans, start-ordered, timestamps in µs from the
        tracer's construction instant."""
        origin = self._origin
        with self._lock:
            finished = list(self._spans)
        spans = sorted(finished, key=lambda s: s[1])
        return [
            {
                "name": name,
                "ts_us": round((start - origin) / 1000.0, 3),
                "dur_us": round(duration / 1000.0, 3),
                "depth": depth,
                "args": dict(args),
            }
            for name, start, duration, depth, args in spans
        ]

    def to_chrome(self) -> dict:
        """A Chrome ``trace_event`` JSON document (Perfetto-loadable)."""
        return {"traceEvents": [chrome_event(span) for span in self.as_dicts()],
                "displayTimeUnit": "ms"}

    def write_chrome(self, path: "str | Path") -> Path:
        """Serialize :meth:`to_chrome` to ``path``; returns the path."""
        path = Path(path)
        path.write_text(json.dumps(self.to_chrome(), indent=2) + "\n")
        return path


class _NullSpan:
    """The shared no-op context manager handed out by :class:`NullTracer`."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTracer(Tracer):
    """The disabled tracer: records nothing, allocates nothing per span."""

    enabled = False

    __slots__ = ()

    def __init__(self):
        self._clock = None
        self._origin = 0
        self._lock = threading.Lock()
        self._spans = []
        self._local = threading.local()

    def span(self, name: str, **args) -> _NullSpan:
        return _NULL_SPAN

    def add_span(self, name: str, start_ns: int, duration_ns: int,
                 **args) -> None:
        pass


#: the shared disabled tracer
NULL_TRACER = NullTracer()
