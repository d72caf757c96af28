"""An always-on ring-buffer event log for post-mortem crash context.

Counters say *how much*, spans say *how long* — neither says *what the
process was doing right before it died*.  The flight recorder fills
that gap for the multiprocess layer: a fixed-size ring of the last
``capacity`` lifecycle events (pool start, task dispatch, result
collection, worker death, timeout, shutdown), recorded unconditionally
because its cost model is one lock-per-append on events that happen per
*phase*, never per tuple — the same budget the obs layer already grants
``Metrics.inc``.

When the parallel layer raises :class:`~repro.errors.ExecutionError`,
it attaches :meth:`FlightRecorder.dump_text` to the exception
(``exc.flight_log``), so the traceback a user files already contains
the dispatch/collect history leading up to the failure.

The recorder is process-local (each shard worker has its own, started
at fork/spawn); only the parent's recorder feeds error reports, which
is the side that observes deaths and timeouts.  Hot join loops must
still never call :meth:`record` unguarded: per-iteration calls sit
behind ``recorder.enabled``, the same way metrics and tracer calls do
in ``joins/``.
"""

from __future__ import annotations

import os
import threading

#: events the default recorder retains (oldest overwritten first)
DEFAULT_CAPACITY = 256


class FlightRecorder:
    """A fixed-size ring of ``(ts_ns, pid, category, message, fields)``."""

    #: loop call sites branch on this before paying the append
    enabled = True

    __slots__ = ("_lock", "_events", "_next", "_recorded", "capacity")

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            raise ValueError(f"flight recorder capacity must be >= 1, "
                             f"got {capacity}")
        self.capacity = capacity
        self._lock = threading.Lock()
        #: ring slots, None until first wrapped write
        self._events: list = [None] * capacity  # repro: shared[lock=_lock]
        self._next = 0          # repro: shared[lock=_lock]
        self._recorded = 0      # repro: shared[lock=_lock]

    # ------------------------------------------------------------------
    def record(self, category: str, message: str = "", **fields) -> None:
        """Append one event (one locked slot write, O(1) always)."""
        from repro.joins.results import Stopwatch

        event = (Stopwatch.now_ns(), os.getpid(), category, message, fields)
        with self._lock:
            self._events[self._next] = event
            self._next = (self._next + 1) % self.capacity
            self._recorded += 1

    def __len__(self) -> int:
        with self._lock:
            return min(self._recorded, self.capacity)

    @property
    def dropped(self) -> int:
        """Events overwritten because the ring wrapped."""
        with self._lock:
            return max(self._recorded - self.capacity, 0)

    def clear(self) -> None:
        with self._lock:
            self._events = [None] * self.capacity
            self._next = 0
            self._recorded = 0

    # ------------------------------------------------------------------
    def events(self) -> list[dict]:
        """Retained events oldest-first as plain dicts."""
        with self._lock:
            if self._recorded >= self.capacity:
                ordered = (self._events[self._next:]
                           + self._events[:self._next])
            else:
                ordered = self._events[:self._next]
        return [
            {"ts_ns": ts, "pid": pid, "category": category,
             "message": message, "fields": dict(fields)}
            for ts, pid, category, message, fields in ordered
            if ts is not None
        ]

    def dump_text(self, limit: "int | None" = None) -> str:
        """The retained events as one line each, oldest-first.

        Timestamps print in milliseconds relative to the first retained
        event — the readable form for an exception attachment.  ``limit``
        keeps only the newest N lines.
        """
        events = self.events()
        if limit is not None:
            events = events[-limit:]
        if not events:
            return "(flight recorder empty)"
        origin = events[0]["ts_ns"]
        lines = []
        dropped = self.dropped
        if dropped:
            lines.append(f"(... {dropped} earlier events overwritten)")
        for event in events:
            rel_ms = (event["ts_ns"] - origin) / 1e6
            detail = " ".join(f"{key}={value}" for key, value
                              in sorted(event["fields"].items()))
            parts = [f"+{rel_ms:9.3f}ms", f"pid={event['pid']}",
                     event["category"]]
            if event["message"]:
                parts.append(event["message"])
            if detail:
                parts.append(detail)
            lines.append(" ".join(parts))
        return "\n".join(lines)


#: the process-wide recorder the parallel layer writes into
FLIGHT_RECORDER = FlightRecorder()
