"""Clean counterexample: annotated shared state handled correctly."""

import threading

_REGISTRY = {}
_REGISTRY_LOCK = threading.Lock()


def register(name, factory):
    with _REGISTRY_LOCK:
        _REGISTRY[name] = factory
    return factory


class SafeCounter:
    def __init__(self):
        self._lock = threading.Lock()
        self._counts = {}  # repro: shared[lock=_lock]

    def inc(self, name):
        with self._lock:
            self._counts[name] = self._counts.get(name, 0) + 1

    def _reset(self):  # repro: borrows-lock[_lock]
        self._counts.clear()

    def reset(self):
        with self._lock:
            self._reset()

    def snapshot(self):
        with self._lock:
            return dict(self._counts)
