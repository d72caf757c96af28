"""Cheap named counters and histograms for the execution stack.

The paper argues entirely from *where time goes inside the join* — probe
counts (§5.15's Umbra accounting), per-level intersection work, build vs
probe split — so the engines need counters that are effectively free when
off and still cheap when on.  Two rules keep them honest:

* **Null-object discipline.**  Every consumer holds either a real
  :class:`Metrics` or the shared :data:`NULL_METRICS`; both expose the
  same surface, so no call site ever tests for ``None``.  Hot loops go
  one step further and check ``metrics.enabled`` (a plain class
  attribute) before doing *any* per-iteration work in ``joins/``,
  ``indexes/`` and ``parallel/``.
* **Counters are dumb.**  A counter is one dict slot holding an int; a
  histogram is four slots (count/total/min/max).  No time series, no
  sampling — per-run instruments that get read once, when the profile
  is assembled.

A session-scoped registry is shared by every thread driving that
session, so the write paths (``inc`` / ``observe`` / ``merge``) take a
small internal lock — a read-modify-write on a dict slot is not atomic
under concurrency.  Hot loops never see that lock: the ``enabled``
discipline keeps per-iteration obs work behind that check and local
accumulation, so locked calls happen per phase, not per tuple.

Counter names are dotted strings (``"frontier.blocks"``); the catalog
lives in ``docs/observability.md``.
"""

from __future__ import annotations

import threading


class Metrics:
    """A registry of named counters and min/max/total histograms."""

    #: hot loops branch on this before touching the registry
    enabled = True

    __slots__ = ("counters", "_histograms", "_lock")

    def __init__(self):
        self._lock = threading.Lock()
        self.counters: dict[str, int] = {}       # repro: shared[lock=_lock]
        #: name -> [count, total, min, max]
        self._histograms: dict[str, list] = {}   # repro: shared[lock=_lock]

    # ------------------------------------------------------------------
    def inc(self, name: str, n: int = 1) -> None:
        """Add ``n`` to counter ``name`` (created at 0 on first use)."""
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + n

    def observe(self, name: str, value: float) -> None:
        """Record one observation into histogram ``name``."""
        with self._lock:
            slot = self._histograms.get(name)
            if slot is None:
                self._histograms[name] = [1, value, value, value]
                return
            slot[0] += 1
            slot[1] += value
            if value < slot[2]:
                slot[2] = value
            if value > slot[3]:
                slot[3] = value

    def get(self, name: str) -> int:
        """Current value of counter ``name`` (0 if never touched)."""
        return self.counters.get(name, 0)

    # ------------------------------------------------------------------
    def histograms(self) -> dict[str, dict[str, float]]:
        """Histogram summaries: ``{name: {count, total, min, max, mean}}``."""
        with self._lock:
            snapshot = sorted((name, list(slot))
                              for name, slot in self._histograms.items())
        out: dict[str, dict[str, float]] = {}
        for name, (count, total, low, high) in snapshot:
            out[name] = {
                "count": count,
                "total": total,
                "min": low,
                "max": high,
                "mean": total / count if count else 0.0,
            }
        return out

    def as_dict(self) -> dict[str, object]:
        """JSON-ready snapshot: counters plus histogram summaries."""
        with self._lock:
            counters = dict(sorted(self.counters.items()))
        return {
            "counters": counters,
            "histograms": self.histograms(),
        }

    def merge(self, other: "Metrics") -> None:
        """Fold another registry's counts into this one.

        ``other`` is snapshotted first (usually a finished per-run
        registry), then folded in under this registry's lock — the two
        locks are never held together, so merge cannot deadlock against
        a concurrent merge in the opposite direction.
        """
        with other._lock:
            other_counters = list(other.counters.items())
            other_histograms = [(name, list(slot))
                                for name, slot in other._histograms.items()]
        with self._lock:
            for name, value in other_counters:
                self.counters[name] = self.counters.get(name, 0) + value
            for name, (count, total, low, high) in other_histograms:
                slot = self._histograms.get(name)
                if slot is None:
                    self._histograms[name] = [count, total, low, high]
                else:
                    slot[0] += count
                    slot[1] += total
                    slot[2] = min(slot[2], low)
                    slot[3] = max(slot[3], high)


class NullMetrics(Metrics):
    """The disabled registry: same surface, every method a no-op.

    Shared as :data:`NULL_METRICS` so holding "no metrics" costs one
    reference and zero allocations; ``enabled`` is False so hot loops
    skip even the no-op calls.
    """

    enabled = False

    __slots__ = ()

    def inc(self, name: str, n: int = 1) -> None:
        pass

    def observe(self, name: str, value: float) -> None:
        pass


#: the shared disabled registry (never holds data)
NULL_METRICS = NullMetrics()
