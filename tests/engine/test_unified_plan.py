"""Unified stage-tree plans: mixed-plan equivalence, RA308.

The tentpole contract: a ``algorithm="unified"`` plan — binary hash
stages and Generic Join sub-plans composed in one stage tree — must
return exactly the rows of every flat plan over the same query, for
cyclic, acyclic and mixed shapes, across index kinds and engines.
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
                       engine="tuple", materialize=True)
        assert row_set(unified) == truth
        assert unified.metrics.algorithm == "unified"

    @pytest.mark.parametrize("engine", ["tuple", "batch"])
    def test_unified_engines(self, edges, tail, engine):
        relations = {"E1": edges, "E2": edges, "E3": edges, "T": tail}
        truth = row_set(join(TRIANGLE_TAIL, relations, algorithm="binary",
                             materialize=True))
        unified = join(TRIANGLE_TAIL, relations, algorithm="unified",
                       engine=engine, materialize=True)
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
        # engine="tuple": under the default the int64 ear rides the core's
        # batch stage and nothing splits
        compiled = plan(bind(TRIANGLE_TAIL, relations), algorithm="unified",
                        engine="tuple")
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
        compiled = plan(bind(CHAIN, relations), algorithm="unified",
                        engine="tuple")
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
            join(TRIANGLE_TAIL, relations, algorithm="unified",
                 engine="tuple", parallel=2)

    def test_unified_profile_carries_stage_reports(self, edges, tail):
        relations = {"E1": edges, "E2": edges, "E3": edges, "T": tail}
        result = join(TRIANGLE_TAIL, relations, algorithm="unified",
                      engine="tuple", profile=True)
        stages = result.profile.stages
        assert [s["label"] for s in stages] == ["root", "core"]
        assert stages[0]["depth"] == 0 and stages[1]["depth"] == 1
        assert stages[0]["actual_rows"] == result.count
        assert all(s["estimated_rows"] is None
                   or s["estimated_rows"] >= 0 for s in stages)
        assert "stage tree:" in result.profile.render()


class TestLazyThreadStress:
    """Two executors racing one cached trie — which builds a level on
    first descent — stay consistent."""

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
                        out = session.execute(TRIANGLE, algorithm="generic")
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
            # all runs converged on cached tries at full depth; the
            # triangle needs only two distinct entries (E1 and E2 share
            # a permutation over the same relation)
            stats = session.cache_stats()
            assert stats.entries == 2
            for key in list(session.cache._entries):
                assert session.cache.built_depth(key) == 2


class TestStageTreeValidation:
    """RA308: planted corruptions flagged, clean plans pass."""

    @pytest.fixture
    def unified(self, edges, tail):
        relations = {"E1": edges, "E2": edges, "E3": edges, "T": tail}
        # the two-stage shape: a binary root over a generic core
        return plan(bind(TRIANGLE_TAIL, relations), algorithm="unified",
                    engine="tuple")

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

    def test_stage_dataclass_is_frozen_and_renders(self, unified):
        root = unified.root_stage
        assert isinstance(root, PlanStage)
        with pytest.raises(dataclasses.FrozenInstanceError):
            root.algorithm = "generic"
        text = root.describe()
        assert text.splitlines()[0].lstrip().startswith("- stage root:")
