"""Umbra-style hash trie (Freitag et al., VLDB'20 — the paper's "Hash-Trie").

The hash trie is the index behind Umbra's worst-case optimal join.  Its two
signature optimizations, both reproduced here as toggleable flags so the
ablation bench can isolate them:

* **Lazy child expansion** — the build phase materializes only the *first*
  level eagerly; an entry's subtree (the hash table over the next
  attribute) is built the first time a probe actually descends into it.
  Entries never touched by the join never pay for deeper levels.
* **Singleton pruning** — an entry whose chain holds exactly one tuple is
  never expanded at all; probes below it compare directly against the
  stored tuple.

The paper's §5.15 critique is that both optimizations backfire under skew
or when "the removed layers … can be useful in the join processing": lazily
expanding a hot entry means re-reading and redistributing its whole chain
at probe time, inside the join's inner loop.  This implementation performs
that redistribution at the same points, and counts it
(:attr:`HashTrie.expansions`, :attr:`HashTrie.redistributed_tuples`) so the
benchmarks can show *why* Hash-Trie loses on the Fig 15 workload.

Umbra keys its tables on attribute *hashes* and defers value verification;
we key on values (Python dicts re-verify automatically) — the behavioural
drivers of the comparison (lazy redistribution cost, pruning) are
unaffected, and point lookups stay exact.

**Concurrency note (deliberate, GIL-scoped).**  Lazy expansion mutates
the trie on the *probe* path: ``node.table[value] = expanded`` replaces
a chain with its expanded subtree.  Under CPython's GIL this publication
is benign without a lock — it is an idempotent replacement of one dict
*value* (two racing probes build equal subtrees from the same frozen
chain and one atomic store wins; no new keys appear during probes, and
chains are never mutated in place — expansion builds a fresh object from
the chain and swaps it in).  The expansion *counters* do drift under
races, which is accepted: they are single-run diagnostics, not join
results.  On free-threaded builds this structure would need per-node
publication CAS.  The hashtrie driver builds its own tries per join, so
no two runs share one; a trie shared between threads anyway is safe only
under the GIL contract documented in ``docs/architecture.md``.
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import ClassVar

from repro.errors import SchemaError
from repro.indexes.base import PrefixCursor, TupleIndex


class _Node:
    """An expanded level: component value → child entry.

    A child entry is either another ``_Node`` (already expanded), or a list
    of rows (an unexpanded chain), or — under singleton pruning — a
    single-row list that will never expand.
    """

    __slots__ = ("table", "depth")

    def __init__(self, depth: int):
        self.table: dict[object, "_Node | list[tuple]"] = {}
        self.depth = depth


class HashTrie(TupleIndex):
    """Lazily-expanded trie of hash tables (Umbra's WCOJ index)."""

    NAME: ClassVar[str] = "hashtrie"

    def __init__(self, arity: int, lazy: bool = True, singleton_pruning: bool = True):
        super().__init__(arity)
        self._lazy = lazy
        self._singleton_pruning = singleton_pruning
        self._root = _Node(depth=0)
        # instrumentation for the Fig 15 story
        self.expansions = 0
        self.redistributed_tuples = 0

    # ------------------------------------------------------------------
    # Build
    # ------------------------------------------------------------------
    def insert(self, row: tuple) -> None:
        row = self._check_row(row)
        chain = self._root.table.get(row[0])
        if chain is None:
            self._root.table[row[0]] = [row]
            self._size += 1
            return
        if isinstance(chain, _Node):
            self._insert_expanded(chain, row)
            return
        if row in chain:
            return
        chain.append(row)
        self._size += 1
        if not self._lazy:
            self._root.table[row[0]] = self._expand_chain(chain, depth=1)

    def _insert_expanded(self, node: _Node, row: tuple) -> None:
        """Insert into an already-expanded subtree (eager mode / post-expansion)."""
        while True:
            depth = node.depth
            if depth == self.arity - 1:
                if row[depth] not in node.table:
                    node.table[row[depth]] = [row]
                    self._size += 1
                return
            child = node.table.get(row[depth])
            if child is None:
                node.table[row[depth]] = [row]
                self._size += 1
                return
            if isinstance(child, list):
                if row in child:
                    return
                child.append(row)
                self._size += 1
                if not self._lazy:
                    node.table[row[depth]] = self._expand_chain(child, depth + 1)
                return
            node = child

    # ------------------------------------------------------------------
    # Lazy expansion
    # ------------------------------------------------------------------
    def _expand_chain(self, chain: list[tuple], depth: int) -> "_Node | list[tuple]":
        """Redistribute a chain into a hash table over component ``depth``.

        This is the work Umbra defers to probe time: the whole chain is
        re-read and every tuple re-hashed into the next level.  Singleton
        chains are left alone when pruning is on.
        """
        if self._singleton_pruning and len(chain) == 1:
            return chain
        if depth >= self.arity:
            return chain
        self.expansions += 1
        self.redistributed_tuples += len(chain)
        node = _Node(depth=depth)
        for row in chain:
            bucket = node.table.setdefault(row[depth], [])
            bucket.append(row)
        return node

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    def contains(self, row: tuple) -> bool:
        row = self._check_row(row)
        entry = self._root.table.get(row[0])
        while entry is not None:
            if isinstance(entry, list):
                return row in entry
            entry = entry.table.get(row[entry.depth])
        return False

    def prefix_lookup(self, prefix: tuple) -> Iterator[tuple]:
        prefix = self._check_prefix(tuple(prefix))
        if not prefix:
            yield from iter(self)
            return
        entry = self._lookup_entry(prefix)
        if entry is None:
            return
        width = len(prefix)
        if isinstance(entry, list):
            for row in entry:
                if row[:width] == prefix:
                    yield row
            return
        yield from self._iter_subtree(entry)

    def count_prefix(self, prefix: tuple) -> int:
        prefix = self._check_prefix(tuple(prefix))
        if not prefix:
            return self._size
        entry = self._lookup_entry(prefix)
        if entry is None:
            return 0
        width = len(prefix)
        if isinstance(entry, list):
            return sum(1 for row in entry if row[:width] == prefix)
        return self._subtree_size(entry)

    def _lookup_entry(self, prefix: tuple):
        """Follow ``prefix``, expanding chains on the way (the lazy cost)."""
        node = self._root
        while True:
            depth = node.depth
            entry = node.table.get(prefix[depth])
            if entry is None:
                return None
            if isinstance(entry, list):
                if depth + 1 >= len(prefix) or depth + 1 >= self.arity:
                    return entry
                expanded = self._expand_chain(entry, depth + 1)
                if isinstance(expanded, list):
                    return expanded  # pruned singleton: caller verifies
                node.table[prefix[depth]] = expanded
                node = expanded
                continue
            if entry.depth >= len(prefix):
                return entry
            node = entry

    def _iter_subtree(self, node: _Node) -> Iterator[tuple]:
        stack: list[_Node | list[tuple]] = [node]
        while stack:
            current = stack.pop()
            if isinstance(current, list):
                yield from current
            else:
                stack.extend(current.table.values())

    def _subtree_size(self, node: _Node) -> int:
        total = 0
        stack: list[_Node | list[tuple]] = [node]
        while stack:
            current = stack.pop()
            if isinstance(current, list):
                total += len(current)
            else:
                stack.extend(current.table.values())
        return total

    def __iter__(self) -> Iterator[tuple]:
        return self._iter_subtree(self._root)

    def iter_next_values(self, prefix: tuple) -> Iterator:
        """Distinct child values; triggers the same lazy expansion as probes."""
        prefix = self._check_prefix(tuple(prefix))
        position = len(prefix)
        if position >= self.arity:
            yield from super().iter_next_values(prefix)
            return
        if position == 0:
            yield from self._root.table.keys()
            return
        entry = self._lookup_entry(prefix)
        if entry is None:
            return
        if isinstance(entry, list):
            seen = set()
            for row in entry:
                if row[:position] == prefix and row[position] not in seen:
                    seen.add(row[position])
                    yield row[position]
            return
        if entry.depth == position:
            yield from entry.table.keys()
            return
        # expanded levels skipped past `position` cannot happen: expansion
        # proceeds one level at a time along probed prefixes
        yield from super().iter_next_values(prefix)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def cursor(self) -> "HashTrieCursor":
        """Native cursor; descents trigger the same lazy expansion as probes."""
        return HashTrieCursor(self)

    def expanded_levels(self) -> int:
        """Deepest expanded level (0 = only the eager first level exists)."""
        deepest = 0
        stack = [self._root]
        while stack:
            node = stack.pop()
            deepest = max(deepest, node.depth)
            for entry in node.table.values():
                if isinstance(entry, _Node):
                    stack.append(entry)
        return deepest

    def memory_usage(self) -> int:
        """Design footprint: per-level tables plus chained tuples."""
        total = 0
        stack: list[_Node | list[tuple]] = [self._root]
        while stack:
            current = stack.pop()
            if isinstance(current, list):
                total += len(current) * 8 * self.arity
                continue
            total += 48 + len(current.table) * (8 + 8)
            stack.extend(current.table.values())
        return total


class HashTrieCursor(PrefixCursor):
    """Descent cursor over the lazily-expanded hash trie.

    Frames are either expanded ``_Node`` tables or (post-pruning) raw
    chains.  Descending into an unexpanded multi-tuple chain expands it
    first — exactly the probe-time redistribution work the Fig 15
    experiment charges to Umbra's design.  Chain frames are filtered
    against the bound path, so descents are exact at every depth.
    """

    __slots__ = ("_index", "_frames", "_path")

    def __init__(self, index: HashTrie):
        self._index = index
        self._frames: list = [index._root]
        self._path: list = []

    @property
    def depth(self) -> int:
        return len(self._path)

    def try_descend(self, value) -> bool:
        index = self._index
        depth = self.depth
        if depth >= index.arity:
            raise SchemaError("cursor already at full depth")
        frame = self._frames[-1]
        if isinstance(frame, list):
            # inside a pruned/unexpanded chain: filter tuples directly
            candidate = [row for row in frame if row[depth] == value]
            if not candidate:
                return False
            self._frames.append(candidate)
            self._path.append(value)
            return True
        entry = frame.table.get(value)
        if entry is None:
            return False
        if isinstance(entry, list) and depth + 1 < index.arity:
            expanded = index._expand_chain(entry, depth + 1)
            if not isinstance(expanded, list):
                frame.table[value] = expanded
                entry = expanded
        self._frames.append(entry)
        self._path.append(value)
        return True

    def ascend(self) -> None:
        if not self._path:
            raise SchemaError("cursor.ascend above the root")
        self._frames.pop()
        self._path.pop()

    def child_values(self):
        index = self._index
        depth = self.depth
        if depth >= index.arity:
            raise SchemaError("cursor at full depth has no children")
        frame = self._frames[-1]
        if isinstance(frame, list):
            seen = set()
            for row in frame:
                value = row[depth]
                if value not in seen:
                    seen.add(value)
                    yield value
            return
        yield from list(frame.table.keys())

    def count(self) -> int:
        """Size of the *current-level* hash table (Freitag et al.'s rule).

        Umbra's multiway join iterates "the smallest hash table at the
        current level"; unlike Sonic's prefix counters this is a width,
        not a subtree size — exactly the information gap the paper's
        §5.15 comparison exploits.
        """
        frame = self._frames[-1]
        if isinstance(frame, list):
            return len(frame)
        return len(frame.table)
