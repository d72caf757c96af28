"""Hash-Trie Join — Umbra's specialized WCOJ (Freitag et al. [22], §5.15).

Hash-Trie Join is the Generic Join specialized under the assumption that
every fractional cover weight equals 1: the *anchor* relation for each
attribute is fixed up front (the smallest relation containing it), which
"avoids the cost of the computations to estimate the size of that
sub-problem" — and, per the paper's §5.15 critique, gives up worst-case
optimality on workloads where the assumption is wrong.

The driver *is* :class:`~repro.joins.generic_join.GenericJoin` — same
recursion, same intersection discipline — with three Umbra-specific
traits:

* indexes are always :class:`~repro.indexes.hashtrie.HashTrie` instances
  with lazy expansion and singleton pruning (toggleable for ablation);
* the per-binding seed follows Freitag et al.'s rule — iterate the
  smallest *current-level hash table* — which, unlike the Generic Join's
  prefix counters, sees level widths rather than sub-problem sizes (the
  information gap behind the paper's "does not take into consideration
  the AGM bound for the sub-problems" critique);
* lazy expansion work triggered during probing is surfaced in the metrics
  (``expansions`` / ``redistributed``), quantifying the §5.15 effect where
  skew forces Umbra to "build middle layers at run-time, traverse the
  Hash-Trie twice and re-distribute the tuples".
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.errors import QueryError
from repro.indexes.hashtrie import HashTrie
from repro.joins.executor import build_adapters
from repro.joins.generic_join import GenericJoin
from repro.joins.results import JoinMetrics, Stopwatch
from repro.planner.qptree import connectivity_order
from repro.planner.query import JoinQuery
from repro.storage.relation import Relation


class HashTrieJoin(GenericJoin):
    """Umbra-style WCOJ over lazily-expanded hash tries."""

    def __init__(self, query: JoinQuery, relations: dict[str, Relation],
                 order: Sequence[str] | None = None,
                 lazy: bool = True, singleton_pruning: bool = True,
                 obs=None):
        missing = [a.alias for a in query.atoms if a.alias not in relations]
        if missing:
            raise QueryError(f"no relation bound for atoms {missing}")
        order = tuple(order) if order else connectivity_order(query)
        # only the first trie level per relation is built here (lazy mode)
        watch = Stopwatch()
        adapters = build_adapters(
            query, relations, order, index="hashtrie",
            index_options={"lazy": lazy,
                           "singleton_pruning": singleton_pruning},
            obs=obs)
        build_seconds = watch.lap()
        super().__init__(query, adapters, order=order, obs=obs)
        self.metrics = JoinMetrics(algorithm="hashtrie_join", index="hashtrie",
                                   build_seconds=build_seconds)
        # the anchor relation — the scan side under the weights=1
        # assumption — is the smallest base relation (§5.15)
        self.anchor: str = min((a.alias for a in query.atoms),
                               key=lambda alias: len(relations[alias]))
        #: the anchor's position among each depth's participants (-1: absent)
        self._anchor_pos: list[int] = [
            aliases.index(self.anchor) if self.anchor in aliases else -1
            for aliases in self._atoms_per_attribute
        ]

    def _choose_seed_pos(self, depth: int, participants: list) -> int:
        """Freitag et al.'s iteration rule: the smallest current-level
        hash table drives the intersection, ties broken toward the
        anchor.  Reading a table's width costs no probe, so nothing is
        added to ``metrics.lookups``."""
        anchor_pos = self._anchor_pos[depth]
        best_pos = 0
        best_count = None
        for pos, cursor in enumerate(participants):
            count = cursor.count()
            if (best_count is None or count < best_count
                    or (count == best_count and pos == anchor_pos)):
                best_pos, best_count = pos, count
        return best_pos

    # ------------------------------------------------------------------
    def expansion_stats(self) -> dict[str, int]:
        """Lazy-expansion work done during probing (the §5.15 cost)."""
        expansions = 0
        redistributed = 0
        for adapter in self.adapters.values():
            index = adapter.index
            assert isinstance(index, HashTrie)
            expansions += index.expansions
            redistributed += index.redistributed_tuples
        return {"expansions": expansions, "redistributed": redistributed}
