"""The one-shape contract: every ``JoinPlan`` is one driver's decisions.

Every request (``generic``, ``binary``, ``hashtrie``, ``leapfrog``,
``recursive``, and ``auto`` once resolved) compiles to one plan that
runs one driver, and ``unified`` is another name for ``auto``.  What a
caller can see — ``describe()`` and the metrics labels — is pinned in
``GOLDEN``; a ``unified`` request prints what its ``auto`` twin prints.
"""

from __future__ import annotations

import pytest

from repro.analysis.plancheck import validate_join_plan
from repro.engine import bind, plan
from repro.errors import QueryError
from repro.joins import join
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
_STAR_RIDES = "engine=auto: batch in the binary pipeline's place (R1, R2, R3)"

#: name -> (describe(), metrics.algorithm, metrics.index)
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
    "unified star": ("binary atoms=R3,R2,R1", "binary_join", "hashmap"),
    "unified star/auto": ("generic/batch index=sonic built=columnar "
                          f"[{_STAR_RIDES}] order=a,b,c,d",
                          "generic_join_batch", "columnar"),
    "unified triangle": ("generic/tuple index=sonic order=a,b,c",
                         "generic_join", "sonic"),
    "unified triangle+ears": ("generic/tuple index=sonic order=a,b,c,d,e",
                              "generic_join", "sonic"),
    "unified triangle+ears/batch": (
        "generic/batch index=sonic built=columnar order=a,b,c,d,e",
        "generic_join_batch", "columnar"),
}


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
    assert validate_join_plan(compiled, relations=bound.relations) == []
    assert {spec.alias for spec in compiled.index_specs} <= set(bound.relations)
    assert compiled.algorithm not in ("auto", "unified")


@pytest.mark.parametrize("pinned", [False, True], ids=["free", "pinned"])
@pytest.mark.parametrize("engine", ["auto", "batch", "tuple"])
@pytest.mark.parametrize("query", [TRIANGLE, STAR, TRIANGLE_EARS],
                         ids=["triangle", "star", "triangle+ears"])
def test_unified_is_another_name_for_auto(query, engine, pinned):
    bound = bind(query, _tables(query))
    # pinned: every atom, in query order
    in_query_order = [atom.alias for atom in bound.query.atoms]
    options = {"engine": engine,
               "binary_order": in_query_order if pinned else None}
    unified = plan(bound, algorithm="unified", **options)
    assert unified == plan(bound, algorithm="auto", **options)
    assert unified.algorithm in ("generic", "binary")


def test_one_stage_unified_plan_shards():
    tables = _tables(TRIANGLE)
    single = join(TRIANGLE, tables, algorithm="unified").count
    assert single > 0
    sharded = join(TRIANGLE, tables, algorithm="unified", parallel=2)
    assert sharded.count == single


class TestBinaryOrderIsHonoredOrRefused:
    @pytest.mark.parametrize("algorithm", ["unified", "auto", "generic"])
    @pytest.mark.parametrize("query", [TRIANGLE, TRIANGLE_EARS],
                             ids=["triangle", "triangle+ears"])
    def test_an_order_that_does_not_cover_the_atoms_raises(self, algorithm,
                                                           query):
        bound = bind(query, _tables(query))
        with pytest.raises(QueryError, match="does not cover"):
            plan(bound, algorithm=algorithm, binary_order=["bogus"])
