"""Leapfrog Triejoin (Veldhuizen [46]) — the paper's §7 extension.

The paper's future work proposes supporting LFTJ through "a trie-like
interface … provided in a straight-forward manner by sorting the input".
This module implements exactly that: relations are sorted into
:class:`~repro.indexes.sorted_trie.SortedTrie` instances (per the query's
total order) and joined with the classic leapfrog algorithm:

for each attribute in the total order, the iterators of all relations
containing it repeatedly *seek* to the maximum of their current keys; when
all keys agree the value is in the intersection, the join recurses one
attribute deeper, and on exhaustion the iterators pop back ``up``.

LFTJ is worst-case optimal like the Generic Join (both are instances of
the same general algorithm [39, 40]); its unit of work is the logarithmic
``seek`` rather than hash probes.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.core.adapter import IndexAdapter
from repro.errors import QueryError
from repro.indexes.sorted_trie import SortedTrie, TrieIterator
from repro.joins.results import JoinMetrics, JoinResult, Stopwatch, make_sink
from repro.obs.observer import NULL_OBSERVER
from repro.planner.qptree import connectivity_order
from repro.planner.query import JoinQuery
from repro.storage.relation import Relation


class LeapfrogTrieJoin:
    """LFTJ over sorted-array tries."""

    def __init__(self, query: JoinQuery, relations: dict[str, Relation],
                 order: Sequence[str] | None = None, obs=None,
                 tries: "dict[str, SortedTrie] | None" = None):
        missing = [a.alias for a in query.atoms if a.alias not in relations]
        if missing:
            raise QueryError(f"no relation bound for atoms {missing}")
        self.query = query
        self.relations = relations
        self.order: tuple[str, ...] = tuple(order) if order else connectivity_order(query)
        self.metrics = JoinMetrics(algorithm="leapfrog", index="sortedtrie")
        # pre-sorted tries (the engine's prepared path) skip the build
        # phase; build_seconds stays zero — prepare owns that accounting
        self._built = tries is not None
        self._tries: dict[str, SortedTrie] = tries or {}
        # which aliases participate at each attribute depth, and at which
        # of their own depths (their attribute's rank in their own order)
        self._participants: list[list[str]] = [
            [atom.alias for atom in query.atoms_with(attribute)]
            for attribute in self.order
        ]
        self.obs = obs if obs is not None else NULL_OBSERVER

    def build(self) -> None:
        if self._built:
            return
        self._built = True
        watch = Stopwatch()
        obs = self.obs
        for atom in self.query.atoms:
            if obs.enabled:
                adapter_t0 = Stopwatch.now_ns()
            relation = self.relations[atom.alias]
            trie = SortedTrie(relation.arity)
            adapter = IndexAdapter(relation, trie, self.order)
            adapter.build()
            trie.rows  # force the sort inside the build phase
            self._tries[atom.alias] = trie
            if obs.enabled:
                obs.record_build(atom.alias, Stopwatch.now_ns() - adapter_t0)
        self.metrics.build_seconds += watch.lap()

    def run(self, materialize: bool = False) -> JoinResult:
        self.build()
        sink = make_sink(materialize)
        watch = Stopwatch()
        iterators = {alias: trie.iterator() for alias, trie in self._tries.items()}
        # per-depth iterator lists, hoisted out of the probe path:
        # _join_level runs once per partial binding and must not
        # allocate per call
        levels: list[list[TrieIterator]] = [
            [iterators[a] for a in aliases] for aliases in self._participants
        ]
        obs = self.obs
        stats = obs.init_levels(self.order, self._participants)
        metrics = self.metrics
        if all(len(trie) for trie in self._tries.values()):
            with obs.tracer.span("probe", algorithm="leapfrog"):
                self._join_level(0, levels, [], sink, stats, obs.enabled)
        for st in stats:
            # every key examined is followed by one next() or seek()
            metrics.lookups += st.candidates
            metrics.intermediate_tuples += st.survivors
        metrics.probe_seconds += watch.lap()
        metrics.result_count = sink.count
        return JoinResult(attributes=self.order, sink=sink, metrics=metrics)

    # ------------------------------------------------------------------
    def _join_level(self, depth: int, levels: list[list[TrieIterator]],
                    binding: list, sink, stats: list, timed: bool) -> None:
        """Bind attribute ``depth``: open every participant one level
        down, leapfrog their key streams, recurse per agreed value.
        ``descends`` / ``ascends`` count iterator ``open()``/``up()``
        calls; survivors are the intersection values."""
        if depth == len(self.order):
            sink.emit(tuple(binding))
            return
        if timed:
            t0 = Stopwatch.now_ns()
        st = stats[depth]
        participants = levels[depth]
        for cursor in participants:
            cursor.open()
        st.descends += len(participants)
        survivors = 0
        try:
            for value in self._leapfrog(participants, st):
                survivors += 1
                binding.append(value)
                self._join_level(depth + 1, levels, binding, sink, stats,
                                 timed)
                binding.pop()
        finally:
            for cursor in participants:
                cursor.up()
            st.ascends += len(participants)
            st.survivors += survivors
            if timed:
                st.time_ns += Stopwatch.now_ns() - t0

    def _leapfrog(self, cursors: list[TrieIterator], st):
        """Yield the intersection of the cursors' key streams (Veldhuizen
        §3); ``st.candidates`` gains one per key examined, matching or not."""
        if any(c.at_end() for c in cursors):
            return
        # in place: `cursors` is this depth's reusable participant list
        # and its internal order is free, so no per-call copy is needed
        cursors.sort(key=lambda c: c.key())
        index = 0
        examined = 0
        max_key = cursors[-1].key()
        while True:
            cursor = cursors[index]
            key = cursor.key()
            examined += 1
            if key == max_key:
                # all cursors agree
                yield key
                cursor.next()
                if cursor.at_end():
                    break
                max_key = cursor.key()
            else:
                cursor.seek(max_key)
                if cursor.at_end():
                    break
                max_key = max(max_key, cursor.key())
            index = (index + 1) % len(cursors)
        st.candidates += examined
