"""Oracles the benchmark owns: every answer the program gives is checked here.

Nothing in this file imports ``repro``: the expected counts come from plain
numpy over the generated rows, so a defect in any layer of the program
(planner, engine, drivers, indexes, storage) shows as a failed operation
instead of being shared by both sides of the comparison.

* :class:`Graph` — a numpy frontier kernel for the cyclic queries
  (triangle, hot-triangle, 4-clique, and the triangle core of the core+ears
  query).  Its run time is also the fixed "speed of light" denominator
  reported as ``oracle.numpy_s``.
* :func:`keyed_product` — ``sum_t prod_r mult_r(t)``, the count of a
  PK-FK star (and of the ears hung on a cyclic core).
* :class:`IndexModel` — a ``set``/``dict`` model of one tuple index.
"""

from __future__ import annotations

import numpy as np


class Graph:
    """Directed edge list in CSR form, with a sorted key column for probes.

    ``nodes`` bounds every node id that will ever be probed or expanded,
    including ids that only occur in a frontier relation.
    """

    def __init__(self, edges: np.ndarray, nodes: int):
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        self.nodes = nodes
        order = np.lexsort((edges[:, 1], edges[:, 0]))
        self.src = edges[order, 0]
        self.dst = edges[order, 1]
        self.indptr = np.searchsorted(self.src, np.arange(nodes + 1))
        # node ids stay far below 2**31, so src * nodes + dst cannot wrap
        self.keys = self.src * nodes + self.dst

    def expand(self, column: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Out-neighbours of every frontier entry: (frontier row, neighbour)."""
        starts = self.indptr[column]
        degrees = self.indptr[column + 1] - starts
        rows = np.repeat(np.arange(len(column)), degrees)
        offsets = np.arange(int(degrees.sum())) - np.repeat(
            np.cumsum(degrees) - degrees, degrees)
        return rows, self.dst[np.repeat(starts, degrees) + offsets]

    def has(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """Membership of each (src, dst) pair."""
        wanted = src * self.nodes + dst
        slots = np.searchsorted(self.keys, wanted)
        slots[slots == len(self.keys)] = 0
        return self.keys[slots] == wanted


#: frontier rows expanded at a time, so the kernel's peak memory stays small
CHUNK = 4096


def triangles(first: np.ndarray, graph: Graph) -> np.ndarray:
    """``F(a,b), E(b,c), E(c,a)``: the ``a`` value of every result row."""
    first = np.asarray(first, dtype=np.int64).reshape(-1, 2)
    found = []
    for start in range(0, len(first), CHUNK):
        block = first[start:start + CHUNK]
        rows, c = graph.expand(block[:, 1])
        a = block[rows, 0]
        found.append(a[graph.has(c, a)])
    return np.concatenate(found) if found else np.empty(0, dtype=np.int64)


def cliques4(first: np.ndarray, graph: Graph) -> int:
    """``F(v0,v1)`` closed to a 4-clique by the five other ``E(vi,vj), i<j``."""
    first = np.asarray(first, dtype=np.int64).reshape(-1, 2)
    total = 0
    for start in range(0, len(first), CHUNK):
        block = first[start:start + CHUNK]
        rows, v2 = graph.expand(block[:, 0])
        v0, v1 = block[rows, 0], block[rows, 1]
        keep = graph.has(v1, v2)
        v0, v1, v2 = v0[keep], v1[keep], v2[keep]
        rows, v3 = graph.expand(v0)
        total += int(np.count_nonzero(
            graph.has(v1[rows], v3) & graph.has(v2[rows], v3)))
    return total


def keyed_product(keys: np.ndarray, fan_keys: list[np.ndarray]) -> int:
    """``sum over keys of prod_r mult_r(key)`` — the PK-FK fan-out of each key.

    ``mult_r(key)`` is how many entries of ``fan_keys[r]`` equal ``key``;
    with no fan this is just ``len(keys)``.
    """
    keys = np.asarray(keys, dtype=np.int64)
    total = np.ones(len(keys), dtype=np.int64)
    for fan in fan_keys:
        values, counts = np.unique(fan, return_counts=True)
        slots = np.searchsorted(values, keys)
        slots[slots == len(values)] = 0
        total *= np.where(values[slots] == keys, counts[slots], 0)
    return int(total.sum())


class IndexModel:
    """Reference model of a tuple index: a row set plus two prefix maps."""

    def __init__(self, rows: list[tuple], prefix_len: int):
        self.rows: set[tuple] = set()
        self.first: dict[object, int] = {}
        self.by_prefix: dict[tuple, list[tuple]] = {}
        self.prefix_len = prefix_len
        for row in rows:
            self.insert(row)

    def insert(self, row: tuple) -> None:
        if row in self.rows:
            return
        self.rows.add(row)
        self.first[row[0]] = self.first.get(row[0], 0) + 1
        self.by_prefix.setdefault(row[:self.prefix_len], []).append(row)

    def contains(self, row: tuple) -> bool:
        return row in self.rows

    def count_first(self, value: object) -> int:
        return self.first.get(value, 0)

    def lookup(self, prefix: tuple) -> list[tuple]:
        return sorted(self.by_prefix.get(prefix, ()))
