"""Hierarchical hash map (the paper's "Hierarchical Abseil Hash Map").

The straw-man way to give hash tables prefix-lookup support (§3.1): a hash
table of hash tables.  Level ``i`` maps the ``i``-th tuple component to the
hash table for level ``i+1``; the last level maps the final component to
the stored tuple.  The paper lists its four drawbacks — indirection on
every level, exponential table count, per-table memory overhead, and
multi-level rehashing — and Sonic exists to avoid them.  We reproduce the
structure over the Robin Hood map so the comparison study can measure those
drawbacks directly (table count and per-level indirections are exposed for
tests and the memory figure).
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import ClassVar

from repro.errors import SchemaError
from repro.indexes.base import PrefixCursor, TupleIndex
from repro.indexes.robinhood import RobinHoodMap

_TABLE_HEADER_BYTES = 48  # per-table fixed overhead (the paper's 3rd drawback)


class _Node:
    """One hash table in the hierarchy plus a subtree tuple count."""

    __slots__ = ("table", "count")

    def __init__(self):
        self.table = RobinHoodMap()
        self.count = 0


class HierarchicalHashMap(TupleIndex):
    """Hash-table-of-hash-tables index with per-node prefix counters."""

    NAME: ClassVar[str] = "hiermap"

    def __init__(self, arity: int):
        super().__init__(arity)
        self._root = _Node()

    # ------------------------------------------------------------------
    # Insert
    # ------------------------------------------------------------------
    def insert(self, row: tuple) -> None:
        row = self._check_row(row)
        # First pass: walk to the leaf to detect duplicates without
        # corrupting counters (counts must reflect distinct tuples).
        if self.contains(row):
            return
        node = self._root
        node.count += 1
        for position in range(self.arity - 1):
            child = node.table.get(row[position])
            if child is None:
                child = _Node()
                node.table.put(row[position], child)
            child.count += 1
            node = child
        node.table.put(row[self.arity - 1], row)
        self._size += 1

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    def contains(self, row: tuple) -> bool:
        row = self._check_row(row)
        node = self._root
        for position in range(self.arity - 1):
            node = node.table.get(row[position])
            if node is None:
                return False
        return node.table.get(row[self.arity - 1]) is not None

    def prefix_lookup(self, prefix: tuple) -> Iterator[tuple]:
        prefix = self._check_prefix(tuple(prefix))
        target = self._descend(prefix)
        if target is None:
            return
        if len(prefix) == self.arity:
            # point lookup through the prefix interface
            yield target
            return
        yield from self._iter_subtree(target, depth=len(prefix))

    def count_prefix(self, prefix: tuple) -> int:
        prefix = self._check_prefix(tuple(prefix))
        target = self._descend(prefix)
        if target is None:
            return 0
        if len(prefix) == self.arity:
            return 1
        return target.count

    def _descend(self, prefix: tuple):
        """Node (or final row) reached by following ``prefix``; None if absent."""
        node = self._root
        for position, value in enumerate(prefix):
            if position == self.arity - 1:
                return node.table.get(value)  # row or None
            node = node.table.get(value)
            if node is None:
                return None
        return node

    def _iter_subtree(self, node: _Node, depth: int) -> Iterator[tuple]:
        if depth == self.arity - 1:
            yield from node.table.values()
            return
        for child in node.table.values():
            yield from self._iter_subtree(child, depth + 1)

    def __iter__(self) -> Iterator[tuple]:
        return self.prefix_lookup(())

    # ------------------------------------------------------------------
    # Introspection (the drawbacks §3.1 enumerates, made measurable)
    # ------------------------------------------------------------------
    def cursor(self) -> "HierarchicalCursor":
        """Native cursor: one Robin Hood probe per descend."""
        return HierarchicalCursor(self)

    def table_count(self) -> int:
        """Total number of hash tables allocated across all levels.

        Nodes live at depths ``0 .. arity-1``; the table at depth
        ``arity-1`` maps the final component to the stored row.
        """
        count = 0
        stack: list[tuple[_Node, int]] = [(self._root, 0)]
        while stack:
            node, depth = stack.pop()
            count += 1
            if depth < self.arity - 1:
                for child in node.table.values():
                    stack.append((child, depth + 1))
        return count

    def memory_usage(self) -> int:
        """Design footprint: per-table headers plus slot arrays."""
        total = 0
        stack: list[tuple[_Node, int]] = [(self._root, 0)]
        while stack:
            node, depth = stack.pop()
            total += _TABLE_HEADER_BYTES + node.table.capacity * (8 + 8 + 2)
            if depth < self.arity - 1:
                for child in node.table.values():
                    stack.append((child, depth + 1))
            else:
                total += len(node.table) * 8 * self.arity  # stored rows
        return total


class HierarchicalCursor(PrefixCursor):
    """Descent cursor over the table hierarchy: one probe per step.

    Frames are the ``_Node`` objects along the bound path; the final
    component resolves against the last table's stored row, so descents
    are exact at every depth (this structure has no ambiguity to patch).
    """

    __slots__ = ("_index", "_nodes", "_bound")

    def __init__(self, index: HierarchicalHashMap):
        self._index = index
        self._nodes: list = [index._root]
        self._bound = 0

    @property
    def depth(self) -> int:
        return self._bound

    def try_descend(self, value) -> bool:
        index = self._index
        if self._bound >= index.arity:
            raise SchemaError("cursor already at full depth")
        child = self._nodes[-1].table.get(value)
        if child is None:
            return False
        self._nodes.append(child)
        self._bound += 1
        return True

    def ascend(self) -> None:
        if not self._bound:
            raise SchemaError("cursor.ascend above the root")
        self._nodes.pop()
        self._bound -= 1

    def child_values(self):
        if self._bound >= self._index.arity:
            raise SchemaError("cursor at full depth has no children")
        return iter(list(self._nodes[-1].table.keys()))

    def count(self) -> int:
        if self._bound == self._index.arity:
            return 1
        current = self._nodes[-1]
        if isinstance(current, _Node):
            return current.count
        return 1  # a stored row (full depth handled above; defensive)
