"""Join-order optimization and the hybrid binary/WCOJ chooser.

Two planners live here:

* :func:`greedy_join_order` — the binary-join baseline's optimizer: a
  System-R style greedy chain (smallest estimated intermediate first,
  avoiding cross products when possible).  Deliberately classical; its
  failure mode under adversarial data is the paper's Fig 1 motivation.
* :class:`HybridOptimizer` — Umbra's idea ([22], §6): run cyclic /
  growth-prone parts of a query with a worst-case optimal join and the
  rest with binary joins.  Our rendering chooses per-query: if the
  query's hypergraph is cyclic, or the binary plan's estimated peak
  intermediate outgrows the AGM bound, WCOJ is selected; for acyclic
  (α-acyclic, GYO-reducible) queries the binary pipeline wins (Table 1's
  JOB column shows exactly this).

That last rule is the paper's, and it compares two compiled
tuple-at-a-time engines.  It is the optimizer's whole answer only while
the Generic Join runs tuple-at-a-time too: unless the engine is pinned
to ``"tuple"`` (or a ``binary_order`` is pinned), the engine's stage
planner (:func:`repro.engine.pipeline.plan`) puts an acyclic query on
the columnar batch engine, which returns the binary plan's bag of rows
on any input and builds by one packed sort per relation against a
Python ``dict.setdefault`` loop per row.  The paper's door
(:func:`repro.joins.join` with a tuple driver) keeps this module's
choice as made (:meth:`HybridOptimizer.decide` takes the acyclicity
its caller's one GYO reduction found).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import QueryError
from repro.planner.agm import fractional_cover
from repro.planner.cardinality import Statistics, estimate_join_size
from repro.planner.hypergraph import Hypergraph
from repro.planner.query import JoinQuery


def greedy_join_order(query: JoinQuery, stats: Statistics) -> list[str]:
    """A left-deep join order (atom aliases) by greedy size estimation.

    Starts from the smallest atom; at each step joins the atom whose
    estimated result with the current intermediate is smallest, preferring
    connected (non-cross-product) extensions.
    """
    remaining = {atom.alias for atom in query.atoms}
    if not remaining:
        raise QueryError("cannot order an empty query")

    # sorted: equal sizes (every self-join) must not be broken by the
    # set's iteration order, which follows the per-process string hash
    start = min(sorted(remaining), key=stats.cardinality)
    order = [start]
    remaining.discard(start)
    bound_attributes = set(query.attributes_of(start))
    current_size = float(stats.cardinality(start))

    while remaining:
        best_alias = None
        best_size = None
        best_connected = False
        for alias in sorted(remaining):
            attrs = set(query.attributes_of(alias))
            shared = attrs & bound_attributes
            connected = bool(shared)
            size = estimate_join_size(
                current_size, stats.cardinality(alias),
                order[-1], alias, shared, stats,
            )
            better = (
                best_alias is None
                or (connected and not best_connected)
                or (connected == best_connected and size < best_size)
            )
            if better:
                best_alias, best_size, best_connected = alias, size, connected
        order.append(best_alias)
        remaining.discard(best_alias)
        bound_attributes |= set(query.attributes_of(best_alias))
        current_size = max(best_size, 1.0)
    return order


def is_alpha_acyclic(hypergraph: Hypergraph) -> bool:
    """Whether GYO reduction empties the hypergraph (no cyclic core).

    Acyclic queries are exactly the ones binary join plans handle
    without blow-up risk (given good orders).
    """
    return not cyclic_core(hypergraph)


def cyclic_core(hypergraph: Hypergraph) -> set[str]:
    """Edge names surviving GYO reduction — the query's cyclic core.

    GYO reduction repeatedly removes *ears*: vertices exclusive to one
    edge, then edges that are empty or contained in another edge.  For
    an acyclic hypergraph nothing survives (a single leftover edge is an
    ear of nothing and counts as reduced); for a cyclic one the result
    is the minimal sub-hypergraph that actually needs worst-case optimal
    treatment.  The removed edges are the GYO ears — acyclic attachments
    a binary pipeline handles without blow-up risk — which is exactly
    the per-component split the unified stage-tree planner builds on
    (core → Generic Join sub-plan, ears → binary stages over the core's
    output, or more atoms of that sub-plan where the columnar engine
    can take them).
    """
    edges = {name: set(attrs) for name, attrs in hypergraph.edges.items()}
    changed = True
    while changed and len(edges) > 1:
        changed = False
        # remove vertices appearing in only one edge
        counts: dict[str, int] = {}
        for attrs in edges.values():
            for vertex in attrs:
                counts[vertex] = counts.get(vertex, 0) + 1
        for attrs in edges.values():
            lonely = {v for v in attrs if counts[v] == 1}
            if lonely:
                attrs -= lonely
                changed = True
        # remove edges contained in another edge (or emptied)
        names = list(edges)
        for name in names:
            if name not in edges:
                continue
            attrs = edges[name]
            if not attrs:
                del edges[name]
                changed = True
                continue
            absorbed = any(other != name and attrs <= other_attrs
                           for other, other_attrs in edges.items())
            if absorbed:
                del edges[name]
                changed = True
    if len(edges) <= 1:
        return set()
    return set(edges)


@dataclass(frozen=True)
class PlanChoice:
    """The hybrid optimizer's decision and its rationale.

    The two estimates are ``None`` when nothing asked for them: the
    decision did not compare them and no observer reports them.
    """

    algorithm: str          # "binary" or "wcoj"
    reason: str
    agm_bound: "float | None"
    binary_estimate: "float | None"


class HybridOptimizer:
    """Chooses binary vs worst-case optimal execution per query (§6, [22])."""

    def __init__(self, growth_threshold: float = 4.0):
        #: how much larger the binary plan's worst intermediate estimate
        #: must be than the AGM bound before WCOJ is preferred for acyclic
        #: queries (cyclic queries always go to WCOJ)
        self.growth_threshold = growth_threshold

    def choose(self, query: JoinQuery, stats: Statistics,
               estimate: bool = True) -> PlanChoice:
        """The choice for ``query`` (see :meth:`decide`)."""
        return self.decide(query, stats,
                           is_alpha_acyclic(Hypergraph.from_query(query)),
                           estimate)

    def decide(self, query: JoinQuery, stats: Statistics, acyclic: bool,
               estimate: bool = True) -> PlanChoice:
        """The choice for ``query``, whose acyclicity the caller already
        knows (the plan stage, or the paper's door, runs one GYO
        reduction per join and hands it here).  The AGM bound (an LP) and the binary peak estimate (a
        distinct-count scan per join column) decide only a multi-atom
        acyclic query; ``estimate=False`` skips them everywhere else,
        where they are a report, not an input."""
        bound = binary_estimate = None
        if estimate or (acyclic and len(query) > 1):
            bound = fractional_cover(Hypergraph.from_query(query),
                                     stats.cardinalities()).bound
            binary_estimate = self._binary_peak_estimate(query, stats)

        if len(query) == 1:
            return PlanChoice("binary", "single atom: a scan", bound,
                              binary_estimate)
        if not acyclic:
            return PlanChoice(
                "wcoj",
                "cyclic hypergraph: binary plans risk intermediate blow-up",
                bound, binary_estimate,
            )
        if binary_estimate > self.growth_threshold * max(bound, 1.0):
            return PlanChoice(
                "wcoj",
                "estimated binary intermediates exceed the AGM bound "
                f"by more than {self.growth_threshold}x",
                bound, binary_estimate,
            )
        return PlanChoice(
            "binary",
            "acyclic query with tame intermediate estimates: "
            "binary hash joins win on build cost",
            bound, binary_estimate,
        )

    def _binary_peak_estimate(self, query: JoinQuery, stats: Statistics) -> float:
        """Largest estimated intermediate along the greedy binary order."""
        order = greedy_join_order(query, stats)
        bound_attributes = set(query.attributes_of(order[0]))
        size = float(stats.cardinality(order[0]))
        peak = size
        for alias in order[1:]:
            attrs = set(query.attributes_of(alias))
            shared = attrs & bound_attributes
            size = estimate_join_size(size, stats.cardinality(alias),
                                      order[0], alias, shared, stats)
            size = max(size, 1.0)
            peak = max(peak, size)
            bound_attributes |= attrs
        return peak
