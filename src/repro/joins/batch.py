"""Frontier-at-a-time Generic Join — the batch engine.

:class:`~repro.joins.generic_join.GenericJoin` is worst-case optimal but
tuple-at-a-time: every candidate value costs a handful of interpreted
method calls, so interpreter dispatch dominates long before the paper's
per-level intersection costs become measurable.  Free Join's vectorized
execution and Worst-Case Optimal Radix Triejoin (PAPERS.md) keep Alg. 1's
structure and carry the *whole binding frontier* as columns instead; this
driver is that execution model over
:class:`~repro.indexes.columnar.ColumnarTrie` structures.

The frontier is one int64 node-id column per atom (the trie node its
bound prefix leads to), plus the bound-value columns when the result is
materialised.  One level of the total order is, for a block of frontier
rows:

1. **degrees** — every participating atom's child count under each
   row's node, read off the trie's CSR ``indptr``;
2. **seed** — per row, the participant with the fewest children: the
   Alg. 1 line 9/10 size comparison on exact residual counts
   (``dynamic_seed=False`` keeps one static seed per level, by base
   relation size);
3. **expand** — the seed's children of every row, laid out with
   ``np.repeat``;
4. **intersect** — one packed-key ``searchsorted`` per other
   participant (Alg. 1 line 15), over the survivors of the previous one
   only.

The expanded frontier is cut into blocks of :data:`BLOCK_ROWS` *expanded*
rows and the blocks are processed depth-first, so live intermediates are
bounded by depth x block however wide a level gets, while the candidate
sets and the intersection discipline — hence the per-level intermediate
counts and worst-case optimality — are exactly the tuple driver's.  Both
engines agree tuple-for-tuple (``tests/joins/test_frontier_differential.py``).

Per-level ``candidates`` / ``survivors`` / ``seed_counts`` / ``time_ns``
cost O(1) per block, so they are always collected, through this one
path; an enabled observer is handed the same accumulators.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.core.adapter import IndexAdapter
from repro.errors import QueryError
from repro.joins.results import JoinMetrics, JoinResult, Stopwatch, make_sink
from repro.obs.observer import NULL_OBSERVER
from repro.planner.qptree import connectivity_order
from repro.planner.query import JoinQuery

#: expanded frontier rows per block.  Warm ms on the two pinned e2e
#: graphs (30k-edge triangle / power-law 4-clique; median of 41
#: interleaved runs): 2 048 rows 18.5 / 36.9, 4 096 16.2 / 30.4, 8 192
#: 15.2 / 27.7, 16 384 15.1 / 26.5, 32 768 16.4 / 27.0, 65 536 19.3 /
#: 29.6.  Below ~8k rows the ~25 numpy calls per block dominate; above
#: ~16k a block's columns leave the cache the next level's gathers want
#: them in.  8 192 is within 5 % of the best on both at half its memory.
BLOCK_ROWS = 8192


class GenericJoinBatch:
    """Generic Join over columnar tries, a block of bindings at a time.

    Construction mirrors :class:`~repro.joins.generic_join.GenericJoin`
    (same validation, same total order, same ``dynamic_seed`` ablation
    knob); each adapter wraps a
    :class:`~repro.indexes.columnar.ColumnarTrie` or a lazy adapter over
    one.  The tries are only read, so one prepared set serves any number
    of concurrent runs; everything a run writes lives on the driver.
    """

    def __init__(self, query: JoinQuery, adapters: dict[str, IndexAdapter],
                 order: Sequence[str] | None = None,
                 dynamic_seed: bool = True, obs=None):
        missing = [a.alias for a in query.atoms if a.alias not in adapters]
        if missing:
            raise QueryError(f"no index adapter for atoms {missing}")
        self.query = query
        self.adapters = adapters
        self.order: tuple[str, ...] = tuple(order) if order else connectivity_order(query)
        if set(self.order) != set(query.attributes):
            raise QueryError(
                f"total order {self.order} does not cover query attributes "
                f"{query.attributes}"
            )
        self.dynamic_seed = dynamic_seed
        #: atom aliases in a fixed sequence; the frontier's node columns
        #: are kept in a list indexed by this sequence
        self._aliases: tuple[str, ...] = tuple(a.alias for a in query.atoms)
        alias_id = {alias: i for i, alias in enumerate(self._aliases)}
        self._sources = [adapters[alias].index for alias in self._aliases]
        #: per level of the total order: ``(atom id, trie depth, has
        #: deeper levels)`` of every atom binding the attribute
        self._participants: list[list[tuple[int, int, bool]]] = []
        for attribute in self.order:
            level = []
            for atom in query.atoms_with(attribute):
                adapter = adapters[atom.alias]
                depth = adapter.position_of(attribute)
                level.append((alias_id[atom.alias], depth,
                              depth + 1 < adapter.index.arity))
            self._participants.append(level)
        #: static seed per level, as a *position* into the participant
        #: list (by base relation size); used when dynamic selection is
        #: ablated
        self._static_pos: list[int] = [
            min(range(len(level)),
                key=lambda p: len(adapters[self._aliases[level[p][0]]].relation))
            for level in self._participants
        ]
        self.metrics = JoinMetrics(algorithm="generic_join_batch")
        self.obs = obs if obs is not None else NULL_OBSERVER

    # ------------------------------------------------------------------
    def run(self, materialize: bool = False) -> JoinResult:
        """Execute the join phase (tries must already be built)."""
        self._sink = sink = make_sink(materialize)
        self._materialize = materialize
        watch = Stopwatch()
        obs = self.obs
        labels = [[self._aliases[atom] for atom, _, _ in level]
                  for level in self._participants]
        self._stats = obs.init_levels(self.order, labels)
        self._blocks = self._live = self._peak = 0
        with obs.tracer.span("probe", algorithm="generic_join_batch",
                             engine="batch"):
            # the root binding: one row, every atom at its trie's root
            self._join_level(0, [None] * len(self._aliases), [], 1)
        if obs.enabled:
            obs.metrics.inc("frontier.blocks", self._blocks)
            obs.metrics.inc("frontier.peak_rows", self._peak)
        self.metrics.probe_seconds += watch.lap()
        self.metrics.result_count = sink.count
        return JoinResult(attributes=self.order, sink=sink, metrics=self.metrics)

    # ------------------------------------------------------------------
    def _join_level(self, level: int, nodes: list, bound: list,
                    rows: int) -> None:
        """Bind attribute ``level`` for a block of ``rows`` frontier rows.

        ``nodes[atom]`` is the block's node-id column for that atom —
        ``None`` while the atom is still at its root (or has no levels
        left); ``bound`` holds the block's value columns, in total order,
        when materialising.
        """
        stats = self._stats[level]
        t0 = Stopwatch.now_ns()
        participants = self._participants[level]
        self.metrics.lookups += rows * len(participants)
        tries, starts, counts = [], [], []
        for atom, depth, _ in participants:
            trie = self._sources[atom].at_depth(depth + 1)
            parents = nodes[atom]
            start, end = trie.child_ranges(depth, parents)
            count = end - start
            if parents is None:
                # the root's one range stands for every row of the block
                start = np.broadcast_to(start, (rows,))
                count = np.broadcast_to(count, (rows,))
            tries.append(trie)
            starts.append(start)
            counts.append(count)
        if len(participants) == 1 or not self.dynamic_seed:
            position = self._static_pos[level]
            self._expand(level, position, None, tries, starts[position],
                         counts[position], nodes, bound)
        else:
            seeds = np.argmin(counts, axis=0)
            for position in range(len(participants)):
                chosen = np.flatnonzero(seeds == position)
                if chosen.size == rows:
                    chosen = None
                elif chosen.size == 0:
                    continue
                self._expand(level, position, chosen, tries,
                             starts[position], counts[position], nodes, bound)
                if chosen is None:
                    break
        stats.time_ns += Stopwatch.now_ns() - t0

    def _expand(self, level: int, position: int,
                chosen: "np.ndarray | None", tries: list, starts: np.ndarray,
                counts: np.ndarray, nodes: list, bound: list) -> None:
        """Expand the rows seeded by participant ``position`` (``chosen``;
        ``None``: the whole block), a block of expanded rows at a time."""
        if chosen is not None:
            starts, counts = starts[chosen], counts[chosen]
        stats = self._stats[level]
        seed_alias = self._aliases[self._participants[level][position][0]]
        stats.seed_counts[seed_alias] += len(counts)
        ends = np.cumsum(counts)
        total = int(ends[-1])
        stats.candidates += total
        if total == 0:
            return
        # expanded row e of frontier row r is child ``e - begins[r]`` of
        # its node: node id ``starts[r] + e - begins[r]``
        shifts = starts - ends
        shifts += counts
        enabled = self.obs.enabled
        for low in range(0, total, BLOCK_ROWS):
            high = min(low + BLOCK_ROWS, total)
            first = int(ends.searchsorted(low, side="right"))
            last = int(ends.searchsorted(high, side="left"))
            spread = counts[first:last + 1].copy()
            spread[0] = min(int(ends[first]), high) - low
            if last > first:
                spread[-1] = high - int(ends[last]) + int(counts[last])
            source = np.repeat(np.arange(first, last + 1), spread)
            children = np.repeat(shifts[first:last + 1], spread)
            children += np.arange(low, high)
            if chosen is not None:
                source = chosen[source]
            size = high - low
            self._blocks += 1
            self._live += size
            if self._live > self._peak:
                self._peak = self._live
            if enabled:
                self.obs.metrics.observe("frontier.rows", size)
            self._intersect(level, position, tries, source, children,
                            nodes, bound)
            self._live -= size

    def _intersect(self, level: int, position: int, tries: list,
                   source: np.ndarray, children: np.ndarray, nodes: list,
                   bound: list) -> None:
        """Probe one expanded block through the other participants and
        hand the survivors to the next level (or the sink).

        ``source[i]`` is the frontier row expanded row ``i`` came from,
        ``children[i]`` the seed's node it stands on.
        """
        participants = self._participants[level]
        seed_atom, seed_depth, seed_keeps = participants[position]
        values = tries[position].values[seed_depth][children]
        #: node-id columns of the participants that have levels left
        kept = {seed_atom: children} if seed_keeps else {}
        for other, (atom, depth, keeps) in enumerate(participants):
            if other == position:
                continue
            parents = nodes[atom]
            if parents is not None:
                parents = parents[source]
            found, ids = tries[other].probe(depth, parents, values)
            if keeps:
                kept[atom] = ids
            if not found.all():
                alive = np.flatnonzero(found)
                if alive.size == 0:
                    return
                values = values[alive]
                source = source[alive]
                for key, column in kept.items():
                    kept[key] = column[alive]
        survivors = int(values.size)
        self._stats[level].survivors += survivors
        self.metrics.intermediate_tuples += survivors

        if self._materialize:
            bound = [column[source] for column in bound]
            bound.append(values)
        if level + 1 == len(self.order):
            self._sink.emit_columns(bound, survivors)
            return
        following = [None] * len(nodes)
        for atom, column in enumerate(nodes):
            if column is not None:
                following[atom] = column[source]
        for atom, _, _ in participants:
            following[atom] = kept.get(atom)
        self._join_level(level + 1, following, bound, survivors)
