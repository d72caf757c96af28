"""Unified stage-tree plans: mixed-plan equivalence, lazy builds, RA308/RA309.

The tentpole contract: a ``algorithm="unified"`` plan — binary hash
stages and Generic Join sub-plans composed in one stage tree — must
return exactly the rows of every flat plan over the same query, for
cyclic, acyclic and mixed shapes, across index kinds and engines, with
and without lazy COLT index building.
"""

from __future__ import annotations

import dataclasses
import threading

import pytest

from repro.analysis.plancheck import check_join_plan, validate_join_plan
from repro.data.graphs import random_edge_relation
from repro.data.imdb import job_light_queries, make_imdb
from repro.engine import PlanStage, Session, bind, plan, stage_alias
from repro.errors import ConfigurationError, PlanValidationError
from repro.indexes.lazy import LAZY_CAPABLE_KINDS, LazyTrieAdapter
from repro.indexes.registry import make_index, registered_indexes
from repro.joins import join
from repro.storage.relation import Relation

TRIANGLE = "E1=E(a,b), E2=E(b,c), E3=E(c,a)"
BOWTIE = "E1=E(a,b), E2=E(b,c), E3=E(c,a), E4=E(a,d), E5=E(d,e), E6=E(e,a)"
CHAIN = "E1=E(a,b), E2=E(b,c), E3=E(c,d)"
TRIANGLE_TAIL = "E1=E(a,b), E2=E(b,c), E3=E(c,a), T=T(a,d)"


def row_set(result):
    """Rows re-keyed to a canonical attribute order, as a set.

    Unified plans may emit attributes in stage order rather than γ
    order, so equivalence is over attribute-labelled tuples.
    """
    attrs = sorted(result.attributes)
    positions = [result.attributes.index(a) for a in attrs]
    return {tuple(row[i] for i in positions) for row in result.rows}


@pytest.fixture(scope="module")
def edges():
    return random_edge_relation(120, 700, seed=7)


@pytest.fixture(scope="module")
def tail():
    return Relation("T", ("a", "d"), [(i % 120, i) for i in range(300)])


class TestMixedPlanEquivalence:
    """Same rows from pure binary, pure generic and unified plans."""

    @pytest.mark.parametrize("query", [TRIANGLE, BOWTIE, CHAIN,
                                       TRIANGLE_TAIL])
    @pytest.mark.parametrize("index", ["sonic", "sortedtrie", "hashtrie"])
    def test_unified_matches_flat_plans(self, edges, tail, query, index):
        aliases = [part.split("=")[0].strip() for part in query.split(",")]
        relations = {a: (tail if a == "T" else edges) for a in aliases}
        baseline = join(query, relations, algorithm="binary",
                        materialize=True)
        truth = row_set(baseline)
        generic = join(query, relations, algorithm="generic", index=index,
                       engine="tuple", materialize=True)
        assert row_set(generic) == truth
        unified = join(query, relations, algorithm="unified", index=index,
                       materialize=True)
        assert row_set(unified) == truth
        assert unified.metrics.algorithm == "unified"

    @pytest.mark.parametrize("engine", ["tuple", "batch"])
    @pytest.mark.parametrize("lazy", [False, True])
    def test_unified_engines_and_lazy(self, edges, tail, engine, lazy):
        relations = {"E1": edges, "E2": edges, "E3": edges, "T": tail}
        truth = row_set(join(TRIANGLE_TAIL, relations, algorithm="binary",
                             materialize=True))
        unified = join(TRIANGLE_TAIL, relations, algorithm="unified",
                       engine=engine, lazy=lazy, materialize=True)
        assert row_set(unified) == truth

    def test_job_light_equivalence(self):
        catalog = make_imdb(400, seed=11)
        for item in job_light_queries(catalog, seed=11):
            flat = join(item.query, item.relations, algorithm="binary",
                        materialize=True)
            unified = join(item.query, item.relations, algorithm="unified",
                           materialize=True)
            assert row_set(unified) == row_set(flat), item.name

    def test_mixed_query_gets_core_plus_ears(self, edges, tail):
        relations = {"E1": edges, "E2": edges, "E3": edges, "T": tail}
        compiled = plan(bind(TRIANGLE_TAIL, relations), algorithm="unified")
        root = compiled.root_stage
        assert root.algorithm == "binary"
        assert len(root.children) == 1
        core = root.children[0]
        assert core.algorithm == "generic"
        assert set(core.query.attributes) == {"a", "b", "c"}
        assert stage_alias("core") in root.atom_order
        # the describe tree carries both stages, nested
        text = compiled.describe()
        assert "stage root: binary" in text
        assert "stage core: generic" in text

    def test_acyclic_query_gets_binary_root(self, edges):
        relations = {"E1": edges, "E2": edges, "E3": edges}
        compiled = plan(bind(CHAIN, relations), algorithm="unified")
        assert compiled.root_stage.algorithm == "binary"
        assert compiled.root_stage.children == ()

    def test_cyclic_query_gets_generic_root(self, edges):
        relations = {"E1": edges, "E2": edges, "E3": edges}
        compiled = plan(bind(TRIANGLE, relations), algorithm="unified")
        assert compiled.root_stage.algorithm == "generic"
        assert compiled.root_stage.children == ()

    def test_unified_rejects_parallel(self, edges, tail):
        # by tree shape: a root with a child stage (a one-stage unified
        # plan shards like the flat plan it is)
        relations = {"E1": edges, "E2": edges, "E3": edges, "T": tail}
        with pytest.raises(ConfigurationError, match="sharded"):
            join(TRIANGLE_TAIL, relations, algorithm="unified", parallel=2)

    def test_unified_profile_carries_stage_reports(self, edges, tail):
        relations = {"E1": edges, "E2": edges, "E3": edges, "T": tail}
        result = join(TRIANGLE_TAIL, relations, algorithm="unified",
                      profile=True)
        stages = result.profile.stages
        assert [s["label"] for s in stages] == ["root", "core"]
        assert stages[0]["depth"] == 0 and stages[1]["depth"] == 1
        assert stages[0]["actual_rows"] == result.count
        assert all(s["estimated_rows"] is None
                   or s["estimated_rows"] >= 0 for s in stages)
        assert "stage tree:" in result.profile.render()


class TestLazyEquivalence:
    """Lazy and eager builds must converge to identical level state."""

    def walk(self, index, arity):
        """Every tuple reachable through the prefix-cursor interface."""
        rows = []
        cursor = index.cursor()

        def descend(prefix):
            if len(prefix) == arity:
                rows.append(tuple(prefix))
                return
            for value in list(cursor.child_values()):
                if cursor.try_descend(value):
                    descend(prefix + [value])
                    cursor.ascend()

        descend([])
        return sorted(rows)

    @pytest.mark.parametrize("kind", list(LAZY_CAPABLE_KINDS))
    def test_full_depth_matches_eager(self, edges, kind):
        adapter = LazyTrieAdapter(edges, kind, ("a", "b"), (0, 1))
        assert adapter.built_depth == 0
        lazy_rows = self.walk(adapter, adapter.arity)
        assert adapter.built_depth == adapter.arity
        eager = make_index(kind, 2) if kind != "sonic" else None
        if eager is None:
            from repro.core.config import SonicConfig
            eager = make_index("sonic", 2,
                               config=SonicConfig.for_tuples(len(edges)))
        eager.build_bulk(edges.columns())
        assert lazy_rows == self.walk(eager, 2)
        # identical level state: same children and residual counts at
        # every prefix the eager trie knows
        inner = adapter._state[0]
        for row in lazy_rows:
            for depth in range(adapter.arity):
                prefix = tuple(row[:depth])
                assert sorted(inner.iter_next_values(prefix)) == \
                    sorted(eager.iter_next_values(prefix))
                assert inner.count_prefix(prefix) == \
                    eager.count_prefix(prefix)
            assert inner.count_prefix(row) == eager.count_prefix(row)

    def test_first_touch_builds_requested_depth_only(self, edges):
        adapter = LazyTrieAdapter(edges, "sortedtrie", ("a", "b"), (0, 1))
        cursor = adapter.cursor()
        values = list(cursor.child_values())     # needs depth 1 only
        assert values and adapter.built_depth == 1
        assert cursor.try_descend(values[0])     # still depth 1
        assert adapter.built_depth == 1
        assert list(cursor.child_values())       # depth 2 → full build
        assert adapter.built_depth == adapter.arity

    def test_root_count_never_builds(self, edges):
        adapter = LazyTrieAdapter(edges, "sonic", ("a", "b"), (0, 1))
        assert adapter.cursor().count() == len(edges)
        assert adapter.built_depth == 0

    def test_pending_charge_drains_once(self, edges):
        adapter = LazyTrieAdapter(edges, "sonic", ("a", "b"), (0, 1))
        list(adapter.cursor().child_values())
        first = adapter.take_pending_charge()
        assert first > 0.0
        assert adapter.take_pending_charge() == 0.0

    def test_lazy_rejects_incapable_kind(self, edges):
        with pytest.raises(ValueError, match="level-at-a-time"):
            LazyTrieAdapter(edges, "hashtrie", ("a", "b"), (0, 1))

    def test_join_level_charge_lands_on_first_run(self, edges):
        relations = {"E1": edges, "E2": edges, "E3": edges}
        with Session(relations) as session:
            prepared = session.prepare(TRIANGLE, algorithm="generic",
                                       lazy=True)
            first = prepared.execute()
            again = prepared.execute()
            assert first.count == again.count
            # materialization happened during the first run
            assert first.metrics.build_seconds > 0.0

    def test_prefix_only_join_leaves_deeper_levels_unbuilt(self, edges):
        # H's sources are graph vertices, its destinations are not: the
        # join dies at ``b``, having asked E2 and E3 for one level each
        probe = Relation("H", ("src", "dst"),
                         [(i, 1000 + i) for i in range(16)])
        relations = {"E1": probe, "E2": edges, "E3": edges}
        hot = "E1=H(a,b), E2=E(b,c), E3=E(c,a)"
        with Session(relations) as session:
            prepared = session.prepare(hot, algorithm="generic",
                                       engine="tuple", lazy=True)
            assert prepared.execute().count == \
                join(hot, relations, algorithm="generic").count == 0
            assert {alias: prepared.structures[alias].built_depth
                    for alias in ("E2", "E3")} == {"E2": 1, "E3": 1}

    def test_lazy_join_equivalence_via_executor(self, edges):
        relations = {"E1": edges, "E2": edges, "E3": edges}
        truth = row_set(join(TRIANGLE, relations, algorithm="generic",
                             materialize=True))
        for engine in ("tuple", "batch"):
            for kind in LAZY_CAPABLE_KINDS:
                lazy = join(TRIANGLE, relations, algorithm="generic",
                            engine=engine, index=kind, lazy=True,
                            materialize=True)
                assert row_set(lazy) == truth, (engine, kind)

    def test_lazy_on_incapable_kind_raises_at_plan_time(self, edges):
        relations = {"E1": edges, "E2": edges, "E3": edges}
        with pytest.raises(ConfigurationError, match="lazy"):
            join(TRIANGLE, relations, algorithm="generic", index="hashtrie",
                 lazy=True)


class TestLazyThreadStress:
    """Two executors racing one cached lazy adapter stay consistent."""

    def test_racing_sessions_share_one_canonical_adapter(self, edges):
        relations = {"E1": edges, "E2": edges, "E3": edges}
        with Session(relations) as session:
            truth = join(TRIANGLE, relations, algorithm="generic").count
            results, errors = [], []
            barrier = threading.Barrier(2)

            def run():
                try:
                    barrier.wait(timeout=10)
                    for _ in range(5):
                        out = session.execute(TRIANGLE, algorithm="generic",
                                              lazy=True)
                        results.append(out.count)
                except Exception as exc:  # pragma: no cover - diagnostics
                    errors.append(exc)

            threads = [threading.Thread(target=run) for _ in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not errors
            assert results == [truth] * 10
            # all runs converged on cached adapters at full depth; the
            # triangle needs only two distinct entries (E1 and E2 share
            # a permutation over the same relation)
            stats = session.cache_stats()
            assert stats.entries == 2
            for key in list(session.cache._entries):
                assert session.cache.built_depth(key) == 2


class TestStageTreeValidation:
    """RA308/RA309: planted corruptions flagged, clean plans pass."""

    @pytest.fixture
    def unified(self, edges, tail):
        relations = {"E1": edges, "E2": edges, "E3": edges, "T": tail}
        return plan(bind(TRIANGLE_TAIL, relations), algorithm="unified")

    def test_clean_unified_plan_passes(self, unified, edges, tail):
        relations = {"E1": edges, "E2": edges, "E3": edges, "T": tail}
        assert validate_join_plan(unified, relations=relations) == []

    def test_ra308_auto_below_root(self, unified):
        bad_child = dataclasses.replace(unified.root_stage.children[0],
                                        algorithm="auto")
        bad = dataclasses.replace(
            unified, root_stage=dataclasses.replace(
                unified.root_stage, children=(bad_child,)))
        codes = [i.code for i in validate_join_plan(bad)]
        assert "RA308" in codes
        with pytest.raises(PlanValidationError, match="RA308"):
            check_join_plan(bad)

    def test_ra308_child_output_must_cover_parent_atom(self, unified):
        bad_child = dataclasses.replace(unified.root_stage.children[0],
                                        output=("a",))
        bad = dataclasses.replace(
            unified, root_stage=dataclasses.replace(
                unified.root_stage, children=(bad_child,)))
        codes = [i.code for i in validate_join_plan(bad)]
        assert "RA308" in codes

    def test_ra308_orphan_synthetic_atom(self, unified):
        bad = dataclasses.replace(
            unified, root_stage=dataclasses.replace(
                unified.root_stage, children=()))
        messages = [i for i in validate_join_plan(bad) if i.code == "RA308"]
        assert any("no matching child" in i.message for i in messages)

    def test_ra308_missing_root(self, unified):
        bad = dataclasses.replace(unified, root_stage=None)
        codes = [i.code for i in validate_join_plan(bad)]
        assert "RA308" in codes

    def test_ra308_duplicate_child_labels(self, unified):
        child = unified.root_stage.children[0]
        bad = dataclasses.replace(
            unified, root_stage=dataclasses.replace(
                unified.root_stage, children=(child, child)))
        messages = [i for i in validate_join_plan(bad) if i.code == "RA308"]
        assert any("two child stages" in i.message for i in messages)

    def test_ra309_lazy_on_incapable_kind(self, edges):
        relations = {"E1": edges, "E2": edges, "E3": edges}
        compiled = plan(bind(TRIANGLE, relations), algorithm="generic",
                        index="hashtrie")
        bad_specs = tuple(dataclasses.replace(s, lazy=True)
                          for s in compiled.index_specs)
        bad = dataclasses.replace(
            compiled, root_stage=dataclasses.replace(
                compiled.root_stage, index_specs=bad_specs))
        codes = {i.code for i in validate_join_plan(bad)}
        assert codes == {"RA309"}
        with pytest.raises(PlanValidationError, match="RA309"):
            check_join_plan(bad)

    def test_ra309_clean_counterexample(self, edges):
        # lazy on a capable kind is exactly what the validator must allow
        relations = {"E1": edges, "E2": edges, "E3": edges}
        compiled = plan(bind(TRIANGLE, relations), algorithm="generic",
                        index="sonic", index_kwargs={"lazy": True})
        assert all(s.lazy for s in compiled.index_specs)
        assert validate_join_plan(compiled, relations=relations) == []

    def test_lazy_kind_registry_cross_check(self):
        # the validator's duck-typed copy must track the live capability
        # tuple, and every capable kind must really be registered
        from repro.analysis.plancheck import _LAZY_KINDS
        assert _LAZY_KINDS == LAZY_CAPABLE_KINDS
        registered = registered_indexes()
        for kind in LAZY_CAPABLE_KINDS:
            assert kind in registered
            assert make_index(kind, 2).SUPPORTS_BULK_BUILD

    def test_stage_dataclass_is_frozen_and_renders(self, unified):
        root = unified.root_stage
        assert isinstance(root, PlanStage)
        with pytest.raises(dataclasses.FrozenInstanceError):
            root.algorithm = "generic"
        text = root.describe()
        assert text.splitlines()[0].lstrip().startswith("- stage root:")
