"""Counter accuracy: profile counters must match brute-force ground truth.

The pinned workload is the Fig 1 triangle query over a seeded random
graph.  For the Generic Join order ``(a, b, c)`` the per-level survivor
counts have a closed-form brute force:

* level ``a`` — values appearing as a source (``E1`` prefix) *and* as a
  destination (``E3 = E(c, a)`` is trie-keyed ``(a, c)``, so its first
  key column is the edge destination);
* level ``b`` — edges ``(a, b)`` whose ``a`` survived level 0 and whose
  ``b`` is some edge's source (``E2`` prefix);
* level ``c`` — completed triangles: ``(b, c)`` and ``(c, a)`` both
  edges.

Both Generic Join engines must report these counts *exactly*, agree with
each other candidate-for-candidate, and the emitted-tuple counter must
equal the brute-force triangle count.
"""

import pytest

pytest.importorskip("numpy")

from repro.data.graphs import random_edge_relation
from repro.engine import Session
from repro.joins.executor import join
from repro.obs.observer import JoinObserver
from repro.obs.profile import validate_profile
from repro.planner.query import parse_query
from repro.storage import Relation

QUERY = parse_query("E1=E(a,b), E2=E(b,c), E3=E(c,a)")


@pytest.fixture(scope="module")
def edges():
    return random_edge_relation(100, 500, seed=13)


@pytest.fixture(scope="module")
def truth(edges):
    """Brute-force (survivors per level, triangle count)."""
    edge_set = set(tuple(row) for row in edges)
    sources = {s for s, _ in edge_set}
    dests = {d for _, d in edge_set}
    a_surv = sources & dests
    b_surv = [(a, b) for a, b in edge_set if a in a_surv and b in sources]
    triangles = [
        (a, b, c)
        for a, b in b_surv
        for c in {d for s, d in edge_set if s == b}
        if (c, a) in edge_set
    ]
    return {
        "survivors": [len(a_surv), len(b_surv), len(triangles)],
        "count": len(triangles),
    }


def profiled(edges, **options):
    result = join(QUERY, {"E1": edges, "E2": edges, "E3": edges},
                  profile=True, **options)
    assert result.profile is not None
    return result


class TestGroundTruth:
    @pytest.mark.parametrize("engine", ["tuple", "batch"])
    def test_survivors_match_brute_force(self, edges, truth, engine):
        result = profiled(edges, algorithm="generic", engine=engine)
        profile = result.profile
        assert [lv.survivors for lv in profile.levels] == truth["survivors"]
        assert result.count == truth["count"]
        assert profile.result_count == truth["count"]

    @pytest.mark.parametrize("engine", ["tuple", "batch"])
    def test_emitted_counter_matches_brute_force(self, edges, truth, engine):
        profile = profiled(edges, algorithm="generic", engine=engine).profile
        assert profile.counters["join.emitted"] == truth["count"]
        # the last level's survivors ARE the emitted tuples
        assert profile.levels[-1].survivors == truth["count"]

    def test_hashtrie_survivors_match_brute_force(self, edges, truth):
        profile = profiled(edges, algorithm="hashtrie").profile
        assert [lv.survivors for lv in profile.levels] == truth["survivors"]

    def test_leapfrog_emits_the_truth(self, edges, truth):
        result = profiled(edges, algorithm="leapfrog")
        assert result.count == truth["count"]
        assert result.profile.levels[-1].survivors == truth["count"]

    def test_binary_final_stage_matches_truth(self, edges, truth):
        result = profiled(edges, algorithm="binary")
        assert result.count == truth["count"]
        assert result.profile.levels[-1].survivors == truth["count"]


class TestEngineConsistency:
    def test_tuple_and_batch_report_identical_levels(self, edges):
        tuple_levels = profiled(edges, algorithm="generic",
                                engine="tuple").profile.levels
        batch_levels = profiled(edges, algorithm="generic",
                                engine="batch").profile.levels
        assert [(lv.label, lv.candidates, lv.survivors)
                for lv in tuple_levels] == \
            [(lv.label, lv.candidates, lv.survivors) for lv in batch_levels]

    def test_rollup_counters_agree_across_engines(self, edges):
        for engine in ("tuple", "batch"):
            profile = profiled(edges, algorithm="generic",
                               engine=engine).profile
            assert profile.counters["level.survivors"] == sum(
                lv.survivors for lv in profile.levels)
            assert profile.counters["level.candidates"] == sum(
                lv.candidates for lv in profile.levels)


class TestProfileShape:
    @pytest.mark.parametrize("options", [
        {"algorithm": "generic", "engine": "tuple"},
        {"algorithm": "generic", "engine": "batch"},
        {"algorithm": "binary"},
        {"algorithm": "hashtrie"},
        {"algorithm": "leapfrog"},
        {"algorithm": "auto"},
    ])
    def test_every_algorithm_validates(self, edges, options):
        profile = profiled(edges, **options).profile
        validate_profile(profile.as_dict())

    def test_optimizer_estimated_vs_actual(self, edges, truth):
        profile = profiled(edges, algorithm="generic").profile
        opt = profile.optimizer
        assert opt is not None
        assert opt["estimated"]["agm_bound"] > 0
        assert opt["actual"]["results"] == truth["count"]
        assert opt["actual"]["peak_level_cardinality"] == max(
            lv.survivors for lv in profile.levels)

    def test_build_breakdown_covers_every_atom(self, edges):
        profile = profiled(edges, algorithm="generic").profile
        assert set(profile.build_breakdown) == {"E1", "E2", "E3"}
        assert profile.counters["build.indexes"] == 3

    def test_render_mentions_every_level(self, edges):
        text = profiled(edges, algorithm="generic").profile.render()
        assert text.startswith("EXPLAIN ANALYZE")
        for label in ("a", "b", "c"):
            assert f"└─ {label}:" in text

    def test_chrome_trace_has_probe_span(self, edges):
        doc = profiled(edges, algorithm="generic").profile.to_chrome_trace()
        names = {event["name"] for event in doc["traceEvents"]}
        assert "probe" in names
        assert "build_index" in names

    @pytest.mark.parametrize("algorithm", ["auto", "unified"])
    def test_batch_routed_star_still_reports_the_estimate(self, algorithm):
        """An acyclic query the plan stage puts on the batch engine skips
        the optimizer's estimates — unless an observer reports them."""
        from repro.engine import bind, plan

        hub = Relation("F", ("t", "x"), [(i, i) for i in range(40)])
        sat = Relation("A", ("t", "p"), [(i % 40, i) for i in range(90)])
        tables = {"F": hub, "A": sat}
        options = {"algorithm": algorithm, "engine": "auto"}
        result = join("F(t,x), A(t,p)", tables, profile=True, **options)
        payload = validate_profile(result.profile.as_dict())
        assert payload["engine"] == "batch"
        assert payload["counters"]["frontier.blocks"] > 0
        assert "optimize" in {span["name"] for span in payload["spans"]}
        optimizer = payload["optimizer"]
        assert optimizer["algorithm"] == "wcoj"
        assert "binary pipeline" in optimizer["reason"]
        assert optimizer["estimated"]["agm_bound"] > 0
        assert optimizer["estimated"]["binary_peak_intermediates"] > 0
        assert optimizer["actual"]["results"] == result.count == 90
        # unobserved, the same plan computes neither estimate
        choice = plan(bind("F(t,x), A(t,p)", tables), **options).choice
        assert choice.algorithm == "wcoj"
        assert choice.agm_bound is None and choice.binary_estimate is None

    def test_render_says_which_levels_were_counted_not_expanded(self):
        """A counting batch run stops at the last attribute that joins
        anything; the profile names the levels it did not expand."""
        hub = Relation("F", ("t", "x"), [(i, i) for i in range(40)])
        sat = Relation("A", ("t", "p", "q"),
                       [(i % 40, i, i % 7) for i in range(90)])
        tables = {"F": hub, "A": sat}
        options = {"engine": "batch", "order": ("t", "x", "p", "q")}
        counted = join("F(t,x), A(t,p,q)", tables, profile=True, **options)
        payload = validate_profile(counted.profile.as_dict())
        assert counted.count == 90
        assert payload["counters"]["frontier.tail_levels"] == 3
        assert payload["counters"]["frontier.tail_rows"] == 40
        assert [(lv["label"], lv["candidates"], lv["survivors"])
                for lv in payload["levels"]] == [
            ("t", 40, 40), ("x", 0, 0), ("p", 0, 0), ("q", 0, 0)]
        assert payload["levels"][1]["seconds"] > 0     # the subtree count
        text = counted.profile.render()
        assert "   └─ x, p, q: counted from subtree sizes" in text
        assert "candidates=0" not in text
        # a materialising run expands every level and says so
        rows = join("F(t,x), A(t,p,q)", tables, profile=True,
                    materialize=True, **options)
        assert rows.profile.counters["frontier.tail_levels"] == 0
        assert [lv.survivors for lv in rows.profile.levels] == [40, 40, 90, 90]
        text = rows.profile.render()
        assert "counted from" not in text and "└─ q:" in text

    def test_a_profile_says_which_levels_were_built(self):
        """A trie builds a level on first descent, inside the execution:
        the time is build time, the span a ``build_index`` one carrying
        ``levels=``, and render() names the levels per atom."""
        hub = Relation("F", ("t", "x"), [(i, i) for i in range(40)])
        sat = Relation("A", ("t", "p", "q"),
                       [(i % 40, i, i % 7) for i in range(100_000)])
        session = Session({"F": hub, "A": sat})
        prepared = session.prepare("F(t,x), A(t,p,q)", engine="batch")
        sorts_s = prepared.build_seconds
        counted = prepared.execute(profile=True)
        payload = validate_profile(counted.profile.as_dict())
        assert payload["counters"]["frontier.levels_built"] == 2
        assert payload["counters"]["frontier.levels_total"] == 5
        assert payload["trie_levels"] == {"A": [1, 3], "F": [1, 2]}
        assert "trie levels: A built 1 of 3 levels  F built 1 of 2 levels" \
            in counted.profile.render()
        deepens = [span for span in payload["spans"]
                   if span["name"] == "build_index"]
        assert sorted((span["args"]["alias"], span["args"]["levels"])
                      for span in deepens) == [("A", 1), ("F", 1)]
        assert set(payload["timings"]["build_breakdown"]) == {"A", "F"}
        # the first run is charged the prepare stage's sorts and, on top,
        # the levels it was the first to descend into — as build time:
        # 100 000 rows of level against a 40-row probe
        levels_s = sum(span["dur_us"] for span in deepens) * 1e-6
        assert counted.metrics.build_seconds == prepared.build_seconds
        assert prepared.build_seconds >= sorts_s + 0.5 * levels_s
        assert counted.metrics.probe_seconds < levels_s
        # a materialising run builds what is left, a third run nothing
        rows = prepared.execute(materialize=True, profile=True)
        assert rows.profile.trie_levels == {"A": (3, 3), "F": (2, 2)}
        assert sorted((span["args"]["alias"], span["args"]["levels"])
                      for span in rows.profile.spans
                      if span["name"] == "build_index") == [
            ("A", 1), ("A", 1), ("F", 1)]
        assert rows.metrics.build_seconds > 0
        again = prepared.execute(materialize=True, profile=True)
        assert again.metrics.build_seconds == 0.0
        assert "build_index" not in {span["name"]
                                     for span in again.profile.spans}
        assert again.profile.counters["frontier.levels_built"] == 5


#: what Alg. 1 does on the ``edges`` fixture, whichever tuple-style WCOJ
#: driver and index runs it: (label, candidates, survivors, descends,
#: ascends, seed_counts) per level
_ALG1_LEVELS = [
    ("a", 100, 100, 200, 200, {"E1": 1, "E3": 0}),
    ("b", 500, 500, 1000, 1000, {"E1": 100, "E2": 0}),
    ("c", 1849, 114, 1963, 1963, {"E2": 290, "E3": 210}),
]
_GENERIC_TUPLE = {"algorithm": "generic", "engine": "tuple"}

#: every driver: its options, the (count, lookups, intermediates) and the
#: per-level numbers its hand-synced profiled twin reported on the
#: ``edges`` fixture at commit 1d20ff8, the last one that had twins — the
#: single recursions must keep reporting exactly these
DRIVERS = {
    "generic-sonic": ({**_GENERIC_TUPLE, "index": "sonic"},
                      (114, 6701, 714), _ALG1_LEVELS),
    "generic-hashtrie": ({**_GENERIC_TUPLE, "index": "hashtrie"},
                         (114, 6701, 714), _ALG1_LEVELS),
    "generic-sortedtrie": ({**_GENERIC_TUPLE, "index": "sortedtrie"},
                           (114, 6701, 714), _ALG1_LEVELS),
    "generic-static-seed": (
        {**_GENERIC_TUPLE, "index": "sonic", "dynamic_seed": False},
        (114, 6729, 714),
        _ALG1_LEVELS[:2]
        + [("c", 2464, 114, 2578, 2578, {"E2": 500, "E3": 0})]),
    # the same walk; reading a table's width is not counted as a lookup
    "hashtrie": ({"algorithm": "hashtrie"}, (114, 5499, 714), _ALG1_LEVELS),
    "leapfrog": ({"algorithm": "leapfrog"}, (114, 3477, 714), [
        ("a", 199, 100, 2, 2, {"E1": 0, "E3": 0}),
        ("b", 1000, 500, 200, 200, {"E1": 0, "E2": 0}),
        ("c", 2278, 114, 1000, 1000, {"E2": 0, "E3": 0}),
    ]),
    # order pinned: the greedy order breaks the three-way size tie by
    # string hash
    "binary": ({"algorithm": "binary", "binary_order": ["E1", "E2", "E3"]},
               (114, 2964, 2578), [
        ("E1", 500, 500, 0, 0, {"E1": 1}),
        ("E2", 500, 2464, 0, 0, {"E2": 500}),
        ("E3", 2464, 114, 0, 0, {"E3": 2464}),
    ]),
    "batch": ({"algorithm": "generic", "engine": "batch"},
              (114, 1202, 714),
              [(label, candidates, survivors, 0, 0, seeds)
               for label, candidates, survivors, _, _, seeds in _ALG1_LEVELS]),
}
#: the drivers that intersect attribute by attribute
WCOJ = sorted(set(DRIVERS) - {"binary"})
#: ... and, of those, the ones that pick an enumeration seed per binding
SEEDED = sorted(set(WCOJ) - {"leapfrog"})


class TestOneRecursionPerDriver:
    """Each driver has one probe recursion: what it counts does not
    depend on whether a profile was asked for, and obeys the invariants
    of the algorithm rather than a twin kept in sync by hand."""

    @pytest.mark.parametrize("name", sorted(DRIVERS))
    def test_profiled_and_plain_runs_agree(self, edges, name):
        options, totals, _ = DRIVERS[name]
        source = {"E1": edges, "E2": edges, "E3": edges}
        for result in (join(QUERY, source, **options),
                       join(QUERY, source, obs=JoinObserver.disabled(),
                            **options),
                       profiled(edges, **options)):
            metrics = result.metrics
            assert (result.count, metrics.lookups,
                    metrics.intermediate_tuples) == totals

    @pytest.mark.parametrize("name", sorted(DRIVERS))
    def test_levels_equal_the_twins_numbers(self, edges, name):
        options, _, levels = DRIVERS[name]
        profile = profiled(edges, **options).profile
        assert [(lv.label, lv.candidates, lv.survivors, lv.descends,
                 lv.ascends, dict(lv.seed_counts))
                for lv in profile.levels] == levels

    @pytest.mark.parametrize("name", sorted(DRIVERS))
    def test_cursor_movements_balance_and_results_leave_last(self, edges,
                                                             name):
        result = profiled(edges, **DRIVERS[name][0])
        levels = result.profile.levels
        assert [lv.descends for lv in levels] == [lv.ascends for lv in levels]
        assert levels[-1].survivors == result.count

    @pytest.mark.parametrize("name", WCOJ)
    def test_survivors_are_the_intermediates(self, edges, name):
        result = profiled(edges, **DRIVERS[name][0])
        assert sum(lv.survivors for lv in result.profile.levels) == \
            result.metrics.intermediate_tuples

    @pytest.mark.parametrize("name", SEEDED)
    def test_one_seed_choice_per_invocation(self, edges, name):
        levels = profiled(edges, **DRIVERS[name][0]).profile.levels
        # a level runs once per binding the level above let through
        invocations = [1] + [lv.survivors for lv in levels[:-1]]
        assert [sum(lv.seed_counts.values()) for lv in levels] == invocations

    def test_hashtrie_ties_go_to_the_anchor(self):
        # both root tables are three entries wide; S, the smaller
        # relation, is the anchor although R comes first
        r = Relation("R", ("a", "b"), [(a, b) for a in range(3)
                                       for b in range(4)])
        s = Relation("S", ("a", "c"), [(a, a) for a in range(3)])
        result = join(parse_query("R(a,b), S(a,c)"), {"R": r, "S": s},
                      algorithm="hashtrie", order=("a", "b", "c"),
                      profile=True)
        assert result.count == 12
        assert result.profile.levels[0].seed_counts == {"R": 0, "S": 1}


class TestDisabledPath:
    def test_unprofiled_run_has_no_profile(self, edges):
        result = join(QUERY, {"E1": edges, "E2": edges, "E3": edges})
        assert result.profile is None

    def test_disabled_observer_is_identical_to_absent(self, edges, truth):
        result = join(QUERY, {"E1": edges, "E2": edges, "E3": edges},
                      obs=JoinObserver.disabled())
        assert result.profile is None
        assert result.count == truth["count"]
