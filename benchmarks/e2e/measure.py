"""The measuring method every timing in the benchmark goes through.

**Closed loop, one client.**  A *pass* is one execution of a section's whole
operation list.  Around each pass the garbage collector is run and then
paused; objects made during set-up are frozen out of its reach first, so
that collection costs milliseconds and never lands inside a pass.

**Reference-speed seconds.**  The sandboxes this runs in change CPU speed
by up to 2x for seconds at a time (measured: the same pure-Python loop took
48 ms to 94 ms within one minute, CPU time tracking wall time), which no
median over one run removes.  So each pass is bracketed by a fixed
calibration kernel, and its time is reported as::

    seconds * CAL_REFERENCE_S / mean(kernel seconds before, after)

that is, the time the pass would take on a machine that runs the kernel in
``CAL_REFERENCE_S``.  On ten 10-second windows of one warm triangle pass
this took the spread of the window medians from 14.8 % to 1.5 %.  The
observed slowdown is itself reported (``bench.calibration_x``), so raw
seconds are ``value * bench.calibration_x``.
"""

from __future__ import annotations

import gc
import json
import statistics
import time
from contextlib import contextmanager

#: seconds the calibration kernel takes on the reference machine
CAL_REFERENCE_S = 0.005
_CAL_TABLE = {i: i + 1 for i in range(4096)}


def calibration_kernel() -> float:
    """Seconds one run of the fixed interpreter-bound kernel takes now."""
    table = _CAL_TABLE
    start = time.perf_counter()
    total = 0
    rows = []
    for i in range(84000):
        key = i & 4095
        total += table[key]
        if not key & 63:
            rows.append((key, total))
    return time.perf_counter() - start


class Clock:
    """Times passes in reference-speed seconds; remembers the slowdown seen."""

    def __init__(self):
        self.slowdowns: list[float] = []
        #: reference seconds per measured second of the latest timing
        self.last_scale = 1.0
        self._last = calibration_kernel()

    def _scale(self) -> float:
        """Reference seconds per measured second, from kernels on both sides."""
        before, self._last = self._last, calibration_kernel()
        slowdown = (before + self._last) / 2 / CAL_REFERENCE_S
        self.slowdowns.append(slowdown)
        self.last_scale = 1.0 / slowdown
        return self.last_scale

    @contextmanager
    def quiet(self):
        """Collect garbage, pause the collector, and refresh the calibration."""
        gc.collect()
        gc.disable()
        self._last = calibration_kernel()
        try:
            yield
        finally:
            gc.enable()

    def time(self, fn, *args):
        """``(reference seconds, result)`` of one call, collector paused."""
        with self.quiet():
            start = time.perf_counter()
            result = fn(*args)
            elapsed = time.perf_counter() - start
            return elapsed * self._scale(), result

    def time_each(self, calls):
        """Reference seconds of each call of an iterable of thunks, one pause.

        Used where single operations are too short to bracket one by one:
        the whole run of calls shares the calibration taken at both ends.
        """
        with self.quiet():
            raw = []
            results = []
            clock = time.perf_counter
            for call in calls:
                start = clock()
                results.append(call())
                raw.append(clock() - start)
            scale = self._scale()
        return [t * scale for t in raw], results


def quartiles(values) -> dict:
    """First and third quartile and the sample count, for printing."""
    low, _, high = statistics.quantiles(values, n=4)
    return {"q1": low, "q3": high, "n": len(values)}


def percentile(values, fraction: float) -> float:
    """Nearest-rank percentile; callers check the sample supports it."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


class Tracer:
    """Spans recorded by the benchmark around its calls into each layer.

    Kept in memory; :meth:`write` emits Chrome ``trace_event`` JSON.  A
    disabled tracer's ``span`` does nothing, which is how the traced run
    measures its own overhead.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[tuple[str, int, int, int, dict]] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        if not self.enabled:
            yield
            return
        parent = self._stack[-1] if self._stack else -1
        slot = len(self.spans)
        self.spans.append((name, 0, 0, parent, attrs))
        self._stack.append(slot)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[slot] = (name, start, end, parent, attrs)

    def seconds(self, name: str, since: int = 0) -> float:
        """Total seconds under spans called ``name`` recorded from ``since``."""
        return sum(end - start for span_name, start, end, _, _
                   in self.spans[since:] if span_name == name) / 1e9

    def write(self, path) -> None:
        events = [
            {"name": name, "ph": "X", "pid": 0, "tid": 0, "ts": start / 1e3,
             "dur": (end - start) / 1e3,
             "args": {**attrs, "id": slot, "parent": parent}}
            for slot, (name, start, end, parent, attrs) in enumerate(self.spans)
        ]
        path.write_text(json.dumps({"traceEvents": events}))
