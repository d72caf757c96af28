"""The Generic Join — worst-case optimal, index-agnostic (§2.3, Alg. 1).

This is the attribute-at-a-time rendering of Ngo, Porat, Ré and Rudra's
Generic Join, the form every practical WCOJ system implements (LFTJ,
EmptyHeaded, Umbra are all specializations [39]).  For the total order
``γ = A_1 … A_n`` the algorithm binds one attribute at a time:

1. among the atoms containing the current attribute, pick the one whose
   residual count under the current binding is smallest — the paper's
   Alg. 1 line 9/10 size comparison that makes the join work-efficient
   and distinguishes it from Hash-Trie Join (§5.15: Umbra "does not take
   into consideration the AGM bound for the sub-problems", i.e. it skips
   exactly this per-binding comparison);
2. enumerate that atom's candidate values for the attribute (a child walk
   in its index);
3. keep a candidate only if **every** atom containing the attribute
   descends successfully into it (Alg. 1 line 15's ``prefixCount``);
4. recurse; a full binding is a result tuple.

Worst-case optimality follows from the intersection-at-every-attribute
discipline: the number of partial bindings alive at depth *i* is bounded
by the AGM bound of the sub-query on ``A_1..A_i`` (see Ngo et al. [39]).

**Execution model.**  The driver holds one
:class:`~repro.indexes.base.PrefixCursor` per atom and performs O(1)-ish
*incremental* descents — the cost model of the paper's Alg. 3 — rather
than re-probing whole prefixes per binding.  Inner-depth descents may
accept an index's rare false positives (Sonic's patch ambiguity, §3.3);
cursors are exact at their final depth, where stored payloads verify the
whole path, so results are always exact — "false results are filtered
out" exactly as the paper prescribes.

The per-binding seed re-selection is the Generic Join's knob; construct
with ``dynamic_seed=False`` to ablate it (choosing the seed statically
per attribute by relation size — the Hash-Trie-Join-like behaviour).

The driver is fully index-agnostic: anything built through
:class:`~repro.core.adapter.IndexAdapter` joins on a level playing field,
the Python equivalent of the paper's C++ template framework (§4.1).
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.core.adapter import IndexAdapter
from repro.errors import QueryError
from repro.joins.results import JoinMetrics, JoinResult, Stopwatch, make_sink
from repro.obs.observer import NULL_OBSERVER
from repro.planner.qptree import connectivity_order
from repro.planner.query import JoinQuery


class GenericJoin:
    """Generic Join over pre-built index adapters.

    **Observability.**  There is one probe recursion
    (:meth:`_join_level`).  Each invocation counts its candidates,
    survivors and cursor movements in local ints and flushes them once
    into that level's :class:`~repro.obs.observer.LevelStats`, which
    the driver owns (an enabled observer is handed the same objects);
    ``metrics.lookups`` / ``metrics.intermediate_tuples`` are summed
    from the levels when the run ends.  ``obs.enabled`` is read once per
    run and only decides whether invocations read the clock.
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
        #: per attribute depth: aliases of the atoms binding it
        self._atoms_per_attribute: list[list[str]] = [
            [atom.alias for atom in query.atoms_with(attribute)]
            for attribute in self.order
        ]
        #: static seed per attribute (by base relation size), used when
        #: dynamic selection is ablated or as the tie-breaking default
        self._static_seed: list[str] = [
            min(aliases, key=lambda a: len(self.adapters[a].relation))
            for aliases in self._atoms_per_attribute
        ]
        #: position of the static seed within its depth's participant list
        self._static_seed_pos: list[int] = [
            aliases.index(seed)
            for aliases, seed in zip(self._atoms_per_attribute,
                                     self._static_seed)
        ]
        self.metrics = JoinMetrics(algorithm="generic_join")
        self.obs = obs if obs is not None else NULL_OBSERVER

    # ------------------------------------------------------------------
    def run(self, materialize: bool = False) -> JoinResult:
        """Execute the join phase (indexes must already be built)."""
        sink = make_sink(materialize)
        watch = Stopwatch()
        cursors = {alias: adapter.index.cursor()
                   for alias, adapter in self.adapters.items()}
        # per-depth participant cursor lists, hoisted out of the probe
        # path: _join_level runs once per partial binding and must not
        # allocate per call (the paper's Alg. 3 cost model)
        levels: list[list] = [
            [cursors[alias] for alias in aliases]
            for aliases in self._atoms_per_attribute
        ]
        obs = self.obs
        stats = obs.init_levels(self.order, self._atoms_per_attribute)
        metrics = self.metrics
        with obs.tracer.span("probe", algorithm=metrics.algorithm,
                             engine="tuple"):
            self._join_level(0, levels, [], sink, stats, obs.enabled)
        for st in stats:
            # one child walk per invocation, one seed re-descend per
            # candidate, one probe per other participant reached: those
            # that descended (descends minus the seed's) plus the one
            # refusal of every candidate the seed took and another
            # dropped (the seed's descends minus survivors)
            metrics.lookups += (sum(st.seed_counts.values()) + st.candidates
                                + st.descends - st.survivors)
            metrics.intermediate_tuples += st.survivors
        metrics.probe_seconds += watch.lap()
        metrics.result_count = sink.count
        return JoinResult(attributes=self.order, sink=sink, metrics=metrics)

    # ------------------------------------------------------------------
    def _join_level(self, depth: int, levels: list, binding: list,
                    sink, stats: list, timed: bool) -> None:
        """Bind attribute ``depth`` under the current partial binding.

        ``stats[depth].time_ns`` is *inclusive*; the profile derives
        exclusive time by subtracting the next level's total.
        """
        if depth == len(self.order):
            sink.emit(tuple(binding))
            return
        if timed:
            t0 = Stopwatch.now_ns()
        participants = levels[depth]
        seed_pos = self._choose_seed_pos(depth, participants)
        seed_cursor = participants[seed_pos]
        candidates = survivors = moves = 0

        for value in seed_cursor.child_values():
            # every participating atom must accept the candidate — the
            # intersection step (Alg. 1 line 15); the seed re-descends too,
            # verifying candidates its own child walk may have surfaced
            # as inner-level false positives.
            candidates += 1
            if not seed_cursor.try_descend(value):
                continue
            descended = 1
            ok = True
            for cursor in participants:
                if cursor is seed_cursor:
                    continue
                if cursor.try_descend(value):
                    descended += 1
                else:
                    ok = False
                    break
            moves += descended
            if ok:
                survivors += 1
                binding.append(value)
                self._join_level(depth + 1, levels, binding, sink, stats,
                                 timed)
                binding.pop()
            # pop exactly the cursors that descended: the seed, then the
            # leading non-seed participants up to the first failure
            seed_cursor.ascend()
            descended -= 1
            for cursor in participants:
                if descended == 0:
                    break
                if cursor is seed_cursor:
                    continue
                cursor.ascend()
                descended -= 1
        st = stats[depth]
        st.candidates += candidates
        st.survivors += survivors
        st.descends += moves
        st.ascends += moves
        st.seed_counts[st.participants[seed_pos]] += 1
        if timed:
            st.time_ns += Stopwatch.now_ns() - t0

    def _choose_seed_pos(self, depth: int, participants: list) -> int:
        """Pick the enumeration seed among the atoms binding this attribute.

        Dynamic mode compares the atoms' residual sizes *under the current
        binding* via the cursors' advisory counts (the paper's motivation
        for making count-prefix fast); static mode uses base relation
        sizes only (the Hash-Trie Join simplification).  Returns the
        seed's position in ``participants``.
        """
        if len(participants) == 1 or not self.dynamic_seed:
            return self._static_seed_pos[depth]
        self.metrics.lookups += len(participants)
        best_pos = 0
        best_count = None
        for pos, cursor in enumerate(participants):
            count = cursor.count()
            if best_count is None or count < best_count:
                best_pos, best_count = pos, count
        return best_pos
