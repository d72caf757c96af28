"""The one-shape contract: every ``JoinPlan`` is a header over a stage tree.

A flat request (``generic``, ``binary``, ``hashtrie``, ``leapfrog``,
``recursive``, and ``auto`` once resolved) compiles to a one-stage tree
through the same stage constructors the unified planner's GYO split
uses, and runs through the same stage executor.  What a caller can see
— ``describe()``, the metrics labels, the profile text — is pinned to
what the flat-plan twin printed before it was deleted (``GOLDEN`` was
captured from that commit).
"""

from __future__ import annotations

import pytest

from repro.analysis.plancheck import validate_join_plan
from repro.engine import PlanStage, bind, plan
from repro.errors import QueryError
from repro.joins import join
from repro.obs.profile import validate_profile
from repro.storage.relation import Relation

TRIANGLE = "E1=E(a,b), E2=E(b,c), E3=E(c,a)"
STAR = "R1=R(a,b), R2=S(a,c), R3=T(a,d)"
TRIANGLE_EARS = "E1=E(a,b), E2=E(b,c), E3=E(c,a), T=T(a,d), U=U(b,e)"


def _tables(query: str) -> dict:
    edges = Relation("E", ("s", "t"),
                     [(i, j) for i in range(6) for j in range(6) if i != j])
    if query == TRIANGLE:
        return {"E1": edges, "E2": edges, "E3": edges}
    if query == STAR:
        return {"R1": Relation("R", ("a", "b"), [(i % 5, i) for i in range(20)]),
                "R2": Relation("S", ("a", "c"), [(i % 4, i) for i in range(12)]),
                "R3": Relation("T", ("a", "d"), [(i % 3, i) for i in range(9)])}
    return {"E1": edges, "E2": edges, "E3": edges,
            "T": Relation("T", ("a", "d"), [(i % 9, i) for i in range(18)]),
            "U": Relation("U", ("b", "e"), [(i % 6, i) for i in range(12)])}


#: name -> (query, plan()/join() keyword arguments); a generic, auto or
#: unified request names its engine (no ``/engine`` in the name: tuple) —
#: what the default resolves to is tests/engine/test_default_engine.py's
REQUESTS = {
    "generic/tuple": (TRIANGLE, {"algorithm": "generic", "engine": "tuple"}),
    "generic/batch": (TRIANGLE, {"algorithm": "generic", "engine": "batch"}),
    "generic/auto": (TRIANGLE, {"algorithm": "generic", "engine": "auto"}),
    "binary": (TRIANGLE, {"algorithm": "binary"}),
    "hashtrie": (TRIANGLE, {"algorithm": "hashtrie"}),
    "leapfrog": (TRIANGLE, {"algorithm": "leapfrog"}),
    "recursive": (TRIANGLE, {"algorithm": "recursive"}),
    "auto star": (STAR, {"algorithm": "auto", "engine": "tuple"}),
    "auto star/auto": (STAR, {"algorithm": "auto", "engine": "auto"}),
    "auto triangle": (TRIANGLE, {"algorithm": "auto", "engine": "tuple"}),
    "unified star": (STAR, {"algorithm": "unified", "engine": "tuple"}),
    "unified star/auto": (STAR, {"algorithm": "unified", "engine": "auto"}),
    "unified triangle": (TRIANGLE, {"algorithm": "unified",
                                    "engine": "tuple"}),
    "unified triangle+ears": (TRIANGLE_EARS, {"algorithm": "unified",
                                              "engine": "tuple"}),
    "unified triangle+ears/batch": (TRIANGLE_EARS, {"algorithm": "unified",
                                                    "engine": "batch"}),
}
FLAT = [name for name, (_, options) in REQUESTS.items()
        if options["algorithm"] != "unified"]

_STAR_RIDES = "engine=auto: batch in the binary pipeline's place (R1, R2, R3)"
_EARS_RIDE = "engine=batch: batch in the binary pipeline's place (T, U)"

#: name -> (describe(), metrics.algorithm, metrics.index) at the parent
GOLDEN = {
    "generic/tuple": ("generic/tuple index=sonic order=a,b,c",
                      "generic_join", "sonic"),
    "generic/batch": ("generic/batch index=sonic built=columnar order=a,b,c",
                      "generic_join_batch", "columnar"),
    "generic/auto": ("generic/batch index=sonic built=columnar order=a,b,c",
                     "generic_join_batch", "columnar"),
    "binary": ("binary atoms=E1,E2,E3", "binary_join", "hashmap"),
    "hashtrie": ("hashtrie order=a,b,c", "hashtrie_join", "hashtrie"),
    "leapfrog": ("leapfrog order=a,b,c", "leapfrog", "sortedtrie"),
    "recursive": ("recursive order=a,b,c", "recursive_join", "hashmap"),
    "auto star": ("binary atoms=R3,R2,R1", "binary_join", "hashmap"),
    "auto star/auto": ("generic/batch index=sonic built=columnar "
                       f"[{_STAR_RIDES}] order=a,b,c,d",
                       "generic_join_batch", "columnar"),
    "auto triangle": ("generic/tuple index=sonic order=a,b,c",
                      "generic_join", "sonic"),
    "unified star": ("unified/tuple index=sonic\n"
                     "  - stage root: binary atoms=R3,R2,R1",
                     "unified", "hashmap"),
    "unified star/auto": (f"unified/batch index=sonic [{_STAR_RIDES}]\n"
                          "  - stage root: generic/batch index=sonic "
                          f"built=columnar [{_STAR_RIDES}] order=a,b,c,d",
                          "unified", "columnar"),
    "unified triangle": ("unified/tuple index=sonic\n"
                         "  - stage root: generic/tuple index=sonic "
                         "order=a,b,c",
                         "unified", "sonic"),
    "unified triangle+ears": ("unified/tuple index=sonic\n"
                              "  - stage root: binary atoms=stage:core,U,T\n"
                              "    - stage core: generic/tuple index=sonic "
                              "order=a,b,c",
                              "unified", "hashmap"),
    "unified triangle+ears/batch": (
        f"unified/batch index=sonic [{_EARS_RIDE}]\n"
        "  - stage root: generic/batch index=sonic built=columnar "
        f"[{_EARS_RIDE}] order=a,b,c,d,e",
        "unified", "columnar"),
}


def _stages(root: PlanStage):
    yield root
    for child in root.children:
        yield from _stages(child)


@pytest.mark.parametrize("name", REQUESTS)
def test_what_a_caller_sees_is_unchanged(name):
    query, options = REQUESTS[name]
    tables = _tables(query)
    result = join(query, tables, **options)
    assert (plan(bind(query, tables), **options).describe(),
            result.metrics.algorithm, result.metrics.index) == GOLDEN[name]


@pytest.mark.parametrize("name", REQUESTS)
def test_every_plan_is_a_valid_stage_tree(name):
    query, options = REQUESTS[name]
    bound = bind(query, _tables(query))
    compiled = plan(bound, **options)
    assert isinstance(compiled.root_stage, PlanStage)
    assert validate_join_plan(compiled, relations=bound.relations) == []
    walked = [spec for stage in _stages(compiled.root_stage)
              for spec in stage.index_specs]
    assert sorted(compiled.iter_specs(), key=repr) == sorted(walked, key=repr)
    assert {spec.alias for spec in walked} <= set(bound.relations)
    if name in FLAT:
        assert compiled.root_stage.children == ()
        assert compiled.root_stage.algorithm == compiled.algorithm


@pytest.mark.parametrize("name", FLAT)
def test_flat_profile_has_its_one_stage(name):
    query, options = REQUESTS[name]
    result = join(query, _tables(query), profile=True, **options)
    (stage,) = result.profile.stages
    assert stage["label"] == "root" and stage["depth"] == 0
    assert stage["actual_rows"] == result.count
    validate_profile(result.profile.as_dict())
    assert "stage tree:" not in result.profile.render()


def test_unified_one_stage_profile_still_prints_its_tree():
    result = join(TRIANGLE, _tables(TRIANGLE), algorithm="unified",
                  profile=True)
    assert [s["label"] for s in result.profile.stages] == ["root"]
    assert "stage tree:" in result.profile.render()


def test_one_stage_unified_plan_shards():
    # sharding is refused by tree shape (a root with children:
    # test_unified_plan.py::test_unified_rejects_parallel), not by label
    tables = _tables(TRIANGLE)
    single = join(TRIANGLE, tables, algorithm="unified").count
    assert single > 0
    sharded = join(TRIANGLE, tables, algorithm="unified", parallel=2)
    assert sharded.count == single


class TestBinaryOrderIsHonoredOrRefused:
    def test_mixed_tree_orders_its_ears_as_pinned(self):
        bound = bind(TRIANGLE_EARS, _tables(TRIANGLE_EARS))
        for pinned in (["U", "T", "E1", "E2", "E3"],
                       ["E3", "T", "E1", "U", "E2"]):
            compiled = plan(bound, algorithm="unified", engine="tuple",
                            binary_order=pinned)
            ears = [alias for alias in pinned if alias in ("T", "U")]
            assert compiled.root_stage.atom_order == ("stage:core", *ears)
            assert f"atoms=stage:core,{','.join(ears)}" in compiled.describe()
        truth = join(TRIANGLE_EARS, bound.relations, algorithm="binary").count
        assert join(TRIANGLE_EARS, bound.relations, algorithm="unified",
                    binary_order=["U", "T", "E1", "E2", "E3"]).count == truth

    @pytest.mark.parametrize("algorithm", ["unified", "auto", "generic"])
    @pytest.mark.parametrize("query", [TRIANGLE, TRIANGLE_EARS],
                             ids=["triangle", "triangle+ears"])
    def test_an_order_that_does_not_cover_the_atoms_raises(self, algorithm,
                                                           query):
        bound = bind(query, _tables(query))
        with pytest.raises(QueryError, match="does not cover"):
            plan(bound, algorithm=algorithm, binary_order=["bogus"])
