"""The Recursive Join — the paper's Algorithm 1, faithfully (§2.3.2).

Ngo, Porat, Ré and Rudra's original worst-case optimal join (NPRR [38],
generalized in [39]) decomposes by *relations*, not attributes:

1. base case — one attribute left, or some relation covers the whole
   remaining universe: intersect the (projected, filtered) relations;
2. otherwise pick an edge ``f`` (the paper wants a suffix of γ; we take
   the edge whose attributes sit deepest in the total order), split the
   universe into ``f' = V \\ f`` and ``f``, and solve the ``f'``
   sub-problem recursively;
3. for every sub-result ``t``, Alg. 1 line 10 applies the AGM-guided
   branch test: with cover weight ``x_f < 1`` and

   .. math:: |R_f| \\ge \\prod_{e \\in E_2 \\setminus f} |R_e[t]|^{1/(1-x_e)}

   the ``f``-side sub-problem (with rescaled weights ``x_e/(1-x_e)``) is
   solved recursively and joined through prefix lookups on ``R_f[t]``;
   otherwise the algorithm scans ``R_f[t]`` directly and filters each
   tuple against the other relations (lines 13–16) — enumerating the
   *smaller* side either way, which is exactly what makes NPRR meet the
   AGM bound.

This driver evaluates over materialized sub-relations (bindings filter
``R_e`` into ``R_e[t]`` via per-edge hash maps), trading memory for
clarity; it exists for algorithmic fidelity and cross-validation — the
production path is the cursor-based :class:`~repro.joins.generic_join.
GenericJoin`, which is the attribute-at-a-time specialization of this
algorithm [39].
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.errors import QueryError
from repro.joins.executor import refuse_repeats
from repro.joins.results import JoinMetrics, JoinResult, Stopwatch, make_sink
from repro.obs.observer import NULL_OBSERVER
from repro.planner.agm import fractional_cover
from repro.planner.hypergraph import Hypergraph
from repro.planner.qptree import connectivity_order
from repro.planner.query import JoinQuery
from repro.storage.relation import Relation


class _Edge:
    """One atom's materialized data plus filter indexes."""

    __slots__ = ("alias", "attributes", "rows")

    def __init__(self, alias: str, attributes: tuple[str, ...],
                 rows: frozenset):
        self.alias = alias
        self.attributes = attributes
        self.rows = rows

    def filtered(self, binding: dict) -> "_Edge":
        """``R_e[t]``: rows matching ``binding`` on shared attributes."""
        shared = [i for i, a in enumerate(self.attributes) if a in binding]
        if not shared:
            return self
        wanted = tuple(binding[self.attributes[i]] for i in shared)
        rows = frozenset(
            row for row in self.rows
            if tuple(row[i] for i in shared) == wanted
        )
        return _Edge(self.alias, self.attributes, rows)

    def project_values(self, attribute: str) -> set:
        position = self.attributes.index(attribute)
        return {row[position] for row in self.rows}


class RecursiveJoin:
    """Alg. 1 over materialized relations (reference implementation)."""

    def __init__(self, query: JoinQuery, relations: dict[str, Relation],
                 order: Sequence[str] | None = None, obs=None):
        missing = [a.alias for a in query.atoms if a.alias not in relations]
        if missing:
            raise QueryError(f"no relation bound for atoms {missing}")
        self.query = query
        self.order: tuple[str, ...] = tuple(order) if order else connectivity_order(query)
        self._rank = {a: i for i, a in enumerate(self.order)}
        self.metrics = JoinMetrics(algorithm="recursive_join", index="hashmap")
        watch = Stopwatch()
        obs = obs if obs is not None else NULL_OBSERVER
        # the build: each relation materialized as a frozen row set — a
        # set, so a relation that repeats a row is refused
        self._edges = []
        for atom in query.atoms:
            if obs.enabled:
                rows_t0 = Stopwatch.now_ns()
            relation = relations[atom.alias]
            rows = frozenset(relation.rows)
            refuse_repeats(relation, rows, "tupleset")
            self._edges.append(_Edge(atom.alias, atom.attributes, rows))
            if obs.enabled:
                obs.record_build(atom.alias, rows_t0, index="tupleset",
                                 tuples=len(relation))
        hypergraph = Hypergraph.from_query(query)
        cover = fractional_cover(
            hypergraph, {alias: len(relations[alias]) for alias in relations})
        self._weights = {atom.alias: max(cover.weight(atom.alias), 1e-9)
                         for atom in query.atoms}
        self.metrics.build_seconds += watch.lap()

    # ------------------------------------------------------------------
    def run(self, materialize: bool = False) -> JoinResult:
        """Execute Alg. 1 and return the (counted or materialized) result."""
        sink = make_sink(materialize)
        watch = Stopwatch()
        universe = [a for a in self.order if a in self.query.attributes]
        results = self._recurse(tuple(universe), self._edges,
                                dict(self._weights))
        for binding in results:
            sink.emit(tuple(binding[a] for a in self.order))
        self.metrics.probe_seconds += watch.lap()
        self.metrics.result_count = sink.count
        return JoinResult(attributes=self.order, sink=sink,
                          metrics=self.metrics)

    # ------------------------------------------------------------------
    def _recurse(self, universe: tuple[str, ...], edges: list[_Edge],
                 weights: dict[str, float]) -> list[dict]:
        """Alg. 1 body: bindings over ``universe`` satisfying all edges."""
        live = [e for e in edges if set(e.attributes) & set(universe)]
        if not live:
            return [{}]

        covering = [e for e in live if set(universe) <= set(e.attributes)]
        if len(universe) == 1 or covering:
            return self._base_case(universe, live)

        # pick f: the edge whose attribute set sits deepest in the total
        # order (the closest realizable analogue of "a suffix of γ")
        f = max(live, key=lambda e: min(self._rank[a] for a in e.attributes
                                        if a in universe))
        f_attrs = tuple(a for a in universe if a in f.attributes)
        f_prime = tuple(a for a in universe if a not in f.attributes)
        if not f_prime:
            # f covers the whole universe — handled by the base case above,
            # but guard against pathological picks
            return self._base_case(universe, live)

        e1 = [e for e in live if set(e.attributes) & set(f_prime)]
        e2 = [e for e in live if set(e.attributes) & set(f_attrs)]
        x_f = weights.get(f.alias, 1.0)

        results: list[dict] = []
        for t in self._recurse(f_prime, [e for e in e1 if e.alias != f.alias],
                               weights):
            self.metrics.intermediate_tuples += 1
            filtered = {e.alias: e.filtered(t) for e in e2}
            others = [filtered[e.alias] for e in e2 if e.alias != f.alias]
            f_t = filtered.get(f.alias, f).filtered(t)

            if x_f < 1.0 and others and self._prefer_subproblem(
                    f_t, others, weights):
                # line 11: solve the f-side sub-problem with rescaled
                # weights, then prefix-lookup each t' in R_f[t]
                rescaled = {
                    e.alias: weights.get(e.alias, 1.0)
                    / max(1.0 - weights.get(e.alias, 1.0), 1e-9)
                    for e in others
                }
                for t_prime in self._recurse(f_attrs, others, rescaled):
                    self.metrics.lookups += 1
                    if self._edge_has(f_t, {**t, **t_prime}):
                        results.append({**t, **t_prime})
            else:
                # lines 14-16: scan R_f[t], filter against every e in E2
                for row in f_t.rows:
                    candidate = dict(t)
                    for attribute, value in zip(f_t.attributes, row):
                        if attribute in candidate and candidate[attribute] != value:
                            break
                        candidate[attribute] = value
                    else:
                        self.metrics.lookups += len(others)
                        if all(self._edge_has(other, candidate)
                               for other in others):
                            results.append(candidate)
        return results

    def _prefer_subproblem(self, f_t: _Edge, others: list[_Edge],
                           weights: dict[str, float]) -> bool:
        """Alg. 1 line 10's size comparison."""
        product = 1.0
        for edge in others:
            x_e = weights.get(edge.alias, 1.0)
            if x_e >= 1.0:
                product *= len(edge.rows)
            else:
                product *= len(edge.rows) ** (1.0 / (1.0 - x_e))
            if product > 1e18:
                return True
        return len(f_t.rows) >= product

    def _base_case(self, universe: tuple[str, ...],
                   edges: list[_Edge]) -> list[dict]:
        """Line 3: ∩_e R_e over the remaining universe."""
        # seed candidate bindings from the smallest participating edge
        seed = min(edges, key=lambda e: len(e.rows))
        positions = [seed.attributes.index(a) for a in universe
                     if a in seed.attributes]
        attrs_in_seed = [a for a in universe if a in seed.attributes]
        if len(attrs_in_seed) != len(universe):
            # seed does not bind all attributes: cross with the values of
            # the remaining ones from the edges that do bind them
            missing = [a for a in universe if a not in seed.attributes]
            pools = []
            for attribute in missing:
                holders = [e for e in edges if attribute in e.attributes]
                values = set.intersection(
                    *(e.project_values(attribute) for e in holders))
                pools.append(sorted(values))
            partials = {tuple(row[i] for i in positions) for row in seed.rows}
            candidates = set()
            for partial in partials:
                self._expand(partial, pools, 0, candidates)
            ordered_attrs = attrs_in_seed + missing
        else:
            candidates = {tuple(row[i] for i in positions)
                          for row in seed.rows}
            ordered_attrs = attrs_in_seed

        results = []
        for values in candidates:
            binding = dict(zip(ordered_attrs, values))
            self.metrics.lookups += len(edges)
            if all(self._edge_has(edge, binding) for edge in edges):
                results.append(binding)
        return results

    @staticmethod
    def _expand(partial: tuple, pools: list, depth: int,
                out: set) -> None:
        if depth == len(pools):
            out.add(partial)
            return
        for value in pools[depth]:
            RecursiveJoin._expand(partial + (value,), pools, depth + 1, out)

    @staticmethod
    def _edge_has(edge: _Edge, binding: dict) -> bool:
        """Does some row of ``edge`` agree with ``binding`` (a prefixCount>0)?"""
        shared = [i for i, a in enumerate(edge.attributes) if a in binding]
        if not shared:
            return True
        wanted = tuple(binding[edge.attributes[i]] for i in shared)
        for row in edge.rows:
            if tuple(row[i] for i in shared) == wanted:
                return True
        return False
