"""Cross-process trace propagation.

A profiled shard worker answers with its own
:class:`~repro.obs.profile.JoinProfile`; this module is what lets the
parent put that profile's spans on its own timeline:

* a :class:`TraceContext` travels with every shard task — a trace id,
  the parent span it hangs under, and the parent-clock timestamp of
  dispatch, so a worker's response can be correlated and clock-aligned;
* :func:`calibrate_clock_offset` estimates the worker→parent clock
  offset NTP-style from the four stamps around one task round trip
  (parent issue ``T0``, worker receive ``R0``, worker respond ``R1``,
  parent collect ``T1``): ``offset = ((T0-R0) + (T1-R1)) / 2``.  Both
  sides read :meth:`~repro.joins.results.Stopwatch.now_ns`
  (``CLOCK_MONOTONIC``), which on Linux is system-wide but not
  *guaranteed* comparable across processes — the calibration makes the
  merged timeline robust instead of hopeful;
* :func:`rebase_spans` shifts a worker profile's spans, µs from the
  worker tracer's origin, onto the parent tracer's origin.

Import discipline: like the rest of ``repro.obs``, nothing from
``repro.joins``/``repro.engine`` is imported at module level — the
parallel layer imports this module, never the reverse.
"""

from __future__ import annotations

import uuid
from dataclasses import dataclass


@dataclass(frozen=True)
class TraceContext:
    """What one shard task carries so its worker can join the trace.

    ``issued_ns`` is the parent clock at dispatch (calibration stamp
    ``T0``); ``trace_id`` names the execution (one id per fan-out) and
    ``parent_span`` the span the worker's activity nests under.
    """

    trace_id: str
    parent_span: str
    issued_ns: int

    @classmethod
    def create(cls, parent_span: str = "shard_fanout") -> "TraceContext":
        from repro.joins.results import Stopwatch

        return cls(trace_id=uuid.uuid4().hex[:16], parent_span=parent_span,
                   issued_ns=Stopwatch.now_ns())

    def to_wire(self) -> dict:
        """The picklable form shipped inside the task dict."""
        return {"trace_id": self.trace_id, "parent_span": self.parent_span,
                "issued_ns": self.issued_ns}

    @classmethod
    def from_wire(cls, wire: "dict | None") -> "TraceContext | None":
        if not wire:
            return None
        return cls(trace_id=wire["trace_id"],
                   parent_span=wire["parent_span"],
                   issued_ns=wire["issued_ns"])


def calibrate_clock_offset(issued_ns: "int | None",
                           received_ns: "int | None",
                           responded_ns: "int | None",
                           collected_ns: "int | None") -> int:
    """The estimated ``parent_clock - worker_clock`` offset in ns.

    The classic two-sample (NTP) estimate over one request/response
    round trip; symmetric transport delay cancels.  Any missing stamp
    degrades to 0 (same-clock assumption — correct for ``fork`` on
    Linux, harmless for display elsewhere).
    """
    stamps = (issued_ns, received_ns, responded_ns, collected_ns)
    if any(stamp is None for stamp in stamps):
        return 0
    return ((issued_ns - received_ns) + (collected_ns - responded_ns)) // 2


def rebase_spans(spans: "list[dict]", shift_ns: int) -> list[dict]:
    """Exported span dicts moved ``shift_ns`` later: a worker's spans
    onto the parent's timeline, with ``shift_ns`` = worker tracer
    origin + clock offset − parent tracer origin."""
    shift_us = shift_ns / 1000.0
    return [dict(span, ts_us=round(span["ts_us"] + shift_us, 3),
                 args=dict(span.get("args", {})))
            for span in spans]
