"""``algorithm="unified"``: mixed-plan equivalence.

``unified`` is another name for ``auto`` — the frontier engine runs a
cyclic core with its acyclic ears as one Generic Join — and must return
exactly the rows of every other plan over the same query, for cyclic,
acyclic and mixed shapes, across index kinds and engines.
"""

from __future__ import annotations

import dataclasses
import threading

import pytest

from repro.data.graphs import random_edge_relation
from repro.data.imdb import job_light_queries, make_imdb
from repro.engine import Session, bind, plan
from repro.joins import join
from repro.storage.relation import Relation

TRIANGLE = "E1=E(a,b), E2=E(b,c), E3=E(c,a)"
BOWTIE = "E1=E(a,b), E2=E(b,c), E3=E(c,a), E4=E(a,d), E5=E(d,e), E6=E(e,a)"
CHAIN = "E1=E(a,b), E2=E(b,c), E3=E(c,d)"
TRIANGLE_TAIL = "E1=E(a,b), E2=E(b,c), E3=E(c,a), T=T(a,d)"


def row_set(result):
    """Rows re-keyed to a canonical attribute order, as a set.

    A binary plan emits attributes in atom order rather than γ order,
    so equivalence is over attribute-labelled tuples.
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
    """Same rows from binary, generic and unified plans."""

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
        # the label names the driver that ran
        assert unified.metrics.algorithm in ("generic_join", "binary_join")

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

    def test_acyclic_query_gets_binary_root(self, edges):
        # at the paper's door, which plans nothing: the optimizer's pick
        relations = {"E1": edges, "E2": edges, "E3": edges}
        result = join(CHAIN, relations, algorithm="unified", engine="tuple")
        assert result.metrics.algorithm == "binary_join"

    def test_cyclic_query_gets_generic_root(self, edges):
        relations = {"E1": edges, "E2": edges, "E3": edges}
        compiled = plan(bind(TRIANGLE, relations), algorithm="unified")
        assert compiled.algorithm == "generic"


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
    """A unified plan has the frontier's one shape, and renders as the
    one stage it is."""

    @pytest.fixture
    def unified(self, edges, tail):
        relations = {"E1": edges, "E2": edges, "E3": edges, "T": tail}
        return plan(bind(TRIANGLE_TAIL, relations), algorithm="unified",
                    engine="batch")

    def test_clean_unified_plan_passes(self, unified):
        assert (unified.algorithm, unified.engine) == ("generic", "batch")
        assert {spec.alias: spec.attribute_order
                for spec in unified.index_specs} == {
            "E1": ("a", "b"), "E2": ("b", "c"), "E3": ("a", "c"),
            "T": ("a", "d")}

    def test_stage_dataclass_is_frozen_and_renders(self, unified):
        with pytest.raises(dataclasses.FrozenInstanceError):
            unified.algorithm = "binary"
        assert unified.describe() == \
            "generic/batch index=sonic built=columnar order=a,b,c,d"
