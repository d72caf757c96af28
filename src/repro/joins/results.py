"""Join result handling: counting vs materializing sinks, and run metrics.

Cycle *counting* (the paper's graph workloads) never materializes result
tuples; relational queries do.  Join drivers emit bindings into a
:class:`ResultSink`; :class:`CountingSink` tallies, :class:`MaterializingSink`
collects tuples in total-order attribute sequence.

:class:`JoinMetrics` carries the timing breakdown the paper's Fig 15
reports (build vs probe time) plus the intermediate-result counter that
tells the Fig 1 story (binary joins exploding, WCOJ not).
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import dataclass, field


class ResultSink:
    """Receives one result binding per call."""

    def emit(self, row: tuple) -> None:
        raise NotImplementedError

    def emit_columns(self, columns: Sequence, count: int) -> None:
        """Emit ``count`` results held as one array per attribute — the
        batch engine's block emit.  A sink that never materializes is
        handed no columns at all."""
        raise NotImplementedError

    @property
    def count(self) -> int:
        raise NotImplementedError


class CountingSink(ResultSink):
    """Counts results without materializing them."""

    def __init__(self):
        self._count = 0

    def emit(self, row: tuple) -> None:
        self._count += 1

    def emit_columns(self, columns: Sequence, count: int) -> None:
        self._count += count

    @property
    def count(self) -> int:
        return self._count


class MaterializingSink(ResultSink):
    """Collects result tuples."""

    def __init__(self):
        self.rows: list[tuple] = []

    def emit(self, row: tuple) -> None:
        self.rows.append(row)

    def emit_columns(self, columns: Sequence, count: int) -> None:
        # .tolist() turns numpy scalars back into Python values, so rows
        # are indistinguishable from the tuple engine's
        self.rows.extend(zip(*(column.tolist() for column in columns)))

    @property
    def count(self) -> int:
        return len(self.rows)


@dataclass
class JoinMetrics:
    """Per-run instrumentation (Fig 1 / Fig 15 breakdowns)."""

    algorithm: str = ""
    index: str = ""
    build_seconds: float = 0.0
    probe_seconds: float = 0.0
    intermediate_tuples: int = 0    # tuples flowing between operators / levels
    lookups: int = 0                # prefix/point probes issued
    result_count: int = 0

    @property
    def total_seconds(self) -> float:
        return self.build_seconds + self.probe_seconds

    def as_row(self) -> dict[str, object]:
        return {
            "algorithm": self.algorithm,
            "index": self.index,
            "build_s": round(self.build_seconds, 6),
            "probe_s": round(self.probe_seconds, 6),
            "total_s": round(self.total_seconds, 6),
            "intermediates": self.intermediate_tuples,
            "lookups": self.lookups,
            "results": self.result_count,
        }


@dataclass
class JoinResult:
    """What every join driver returns."""

    attributes: tuple[str, ...]           # result schema, in total order
    sink: ResultSink
    metrics: JoinMetrics = field(default_factory=JoinMetrics)
    #: EXPLAIN ANALYZE report, set by ``join(..., profile=True)``
    profile: "JoinProfile | None" = None  # noqa: F821 - repro.obs.profile

    @property
    def count(self) -> int:
        return self.sink.count

    @property
    def rows(self) -> list[tuple]:
        if isinstance(self.sink, MaterializingSink):
            return self.sink.rows
        raise AttributeError("join ran in counting mode; no rows materialized")

    def rows_as_dicts(self) -> list[dict[str, object]]:
        return [dict(zip(self.attributes, row)) for row in self.rows]


class Stopwatch:
    """Tiny phase timer used by the join drivers.

    Internally integer nanoseconds (``time.perf_counter_ns`` — no float
    accumulation error across laps); float seconds only at the API
    boundary.  :meth:`now_ns` is the single monotonic clock source shared
    with :class:`repro.obs.trace.Tracer`, so span timestamps and phase
    timings are directly comparable.
    """

    #: the shared monotonic clock (integer nanoseconds)
    now_ns = staticmethod(time.perf_counter_ns)

    def __init__(self):
        self._start = time.perf_counter_ns()

    def lap(self) -> float:
        now = time.perf_counter_ns()
        elapsed = now - self._start
        self._start = now
        return elapsed * 1e-9


def make_sink(materialize: bool) -> ResultSink:
    return MaterializingSink() if materialize else CountingSink()


def project_binding(binding: dict[str, object],
                    attributes: Sequence[str]) -> tuple:
    """Order a bound-attribute dict into a result tuple."""
    return tuple(binding[a] for a in attributes)
