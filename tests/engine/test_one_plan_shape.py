"""One routing table: which door answers each request.

A request — algorithm × engine × a pinned ``binary_order`` — goes to
one of two doors, decided from its arguments alone.  The frontier's
requests compile to one plan that runs one driver, the batch Generic
Join, and ``unified`` is another name for ``auto``.  The paper's door
(``engine="tuple"``; ``binary``, ``hashtrie``, ``leapfrog`` or
``recursive``; a pinned ``binary_order``) has no plan: ``plan()``
raises ``ConfigurationError`` naming ``join(engine="tuple")``, and
``join()`` runs the driver.  What a caller can see — the frontier's
``describe()`` and the metrics labels — is pinned in ``GOLDEN``.
"""

from __future__ import annotations

import pytest

from repro.engine import bind, plan
from repro.errors import ConfigurationError, QueryError
from repro.joins import join
from repro.storage.relation import Relation

TRIANGLE = "E1=E(a,b), E2=E(b,c), E3=E(c,a)"
STAR = "R1=R(a,b), R2=S(a,c), R3=T(a,d)"
TRIANGLE_EARS = "E1=E(a,b), E2=E(b,c), E3=E(c,a), T=T(a,d), U=U(b,e)"
DOOR = r'join\(engine="tuple"\)'


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


def _in_query_order(query: str) -> list:
    return [atom.alias for atom in bind(query, _tables(query)).query.atoms]


#: name -> (query, join() keyword arguments); a generic, auto or
#: unified request names its engine (no ``/engine`` in the name: tuple),
#: and "pinned" pins every atom in query order — what the default engine
#: resolves to is tests/engine/test_default_engine.py's
REQUESTS = {
    "generic/tuple": (TRIANGLE, {"algorithm": "generic", "engine": "tuple"}),
    "generic/batch": (TRIANGLE, {"algorithm": "generic", "engine": "batch"}),
    "generic/auto": (TRIANGLE, {"algorithm": "generic", "engine": "auto"}),
    "binary": (TRIANGLE, {"algorithm": "binary"}),
    "binary pinned": (TRIANGLE, {"algorithm": "binary",
                                 "binary_order": _in_query_order(TRIANGLE)}),
    # an explicit driver other than the Generic Join ignores the engine
    "binary pinned/batch": (TRIANGLE, {
        "algorithm": "binary", "engine": "batch",
        "binary_order": _in_query_order(TRIANGLE)}),
    "hashtrie": (TRIANGLE, {"algorithm": "hashtrie"}),
    "leapfrog": (TRIANGLE, {"algorithm": "leapfrog"}),
    "recursive": (TRIANGLE, {"algorithm": "recursive"}),
    "auto star": (STAR, {"algorithm": "auto", "engine": "tuple"}),
    "auto star/auto": (STAR, {"algorithm": "auto", "engine": "auto"}),
    "auto star pinned/auto": (STAR, {"algorithm": "auto", "engine": "auto",
                                     "binary_order": _in_query_order(STAR)}),
    "auto triangle": (TRIANGLE, {"algorithm": "auto", "engine": "tuple"}),
    "auto triangle pinned/auto": (
        TRIANGLE, {"algorithm": "auto", "engine": "auto",
                   "binary_order": _in_query_order(TRIANGLE)}),
    "unified star": (STAR, {"algorithm": "unified", "engine": "tuple"}),
    "unified star/auto": (STAR, {"algorithm": "unified", "engine": "auto"}),
    "unified triangle": (TRIANGLE, {"algorithm": "unified",
                                    "engine": "tuple"}),
    "unified triangle+ears": (TRIANGLE_EARS, {"algorithm": "unified",
                                              "engine": "tuple"}),
    "unified triangle+ears/batch": (TRIANGLE_EARS, {"algorithm": "unified",
                                                    "engine": "batch"}),
    "unified triangle+ears pinned/auto": (
        TRIANGLE_EARS, {"algorithm": "unified", "engine": "auto",
                        "binary_order": _in_query_order(TRIANGLE_EARS)}),
}
_STAR_RIDES = "engine=auto: batch in the binary pipeline's place (R1, R2, R3)"
_FRONTIER = ("generic_join_batch", "columnar")
_TUPLE_GJ = ("generic_join", "sonic")
_BINARY = ("binary_join", "hashmap")

#: name -> (the frontier plan's describe(), or None: the paper's door
#: answers, and there is no plan; metrics.algorithm, metrics.index)
GOLDEN = {
    "generic/tuple": (None, *_TUPLE_GJ),
    "generic/batch": ("generic/batch index=sonic built=columnar order=a,b,c",
                      *_FRONTIER),
    "generic/auto": ("generic/batch index=sonic built=columnar order=a,b,c",
                     *_FRONTIER),
    "binary": (None, *_BINARY),
    "binary pinned": (None, *_BINARY),
    "binary pinned/batch": (None, *_BINARY),
    "hashtrie": (None, "hashtrie_join", "hashtrie"),
    "leapfrog": (None, "leapfrog", "sortedtrie"),
    "recursive": (None, "recursive_join", "hashmap"),
    "auto star": (None, *_BINARY),
    "auto star/auto": ("generic/batch index=sonic built=columnar "
                       f"[{_STAR_RIDES}] order=a,b,c,d", *_FRONTIER),
    "auto star pinned/auto": (None, *_BINARY),
    "auto triangle": (None, *_TUPLE_GJ),
    "auto triangle pinned/auto": (None, *_TUPLE_GJ),
    "unified star": (None, *_BINARY),
    "unified star/auto": ("generic/batch index=sonic built=columnar "
                          f"[{_STAR_RIDES}] order=a,b,c,d", *_FRONTIER),
    "unified triangle": (None, *_TUPLE_GJ),
    "unified triangle+ears": (None, *_TUPLE_GJ),
    "unified triangle+ears/batch": (
        "generic/batch index=sonic built=columnar order=a,b,c,d,e",
        *_FRONTIER),
    "unified triangle+ears pinned/auto": (None, *_TUPLE_GJ),
}


def planned(bound, options: dict):
    """``plan()`` under a request's options; a pinned ``binary_order``
    travels among the index options, as a session passes it on."""
    options = dict(options)
    pinned = options.pop("binary_order", None)
    return plan(bound, **options,
                index_kwargs=None if pinned is None
                else {"binary_order": pinned})


@pytest.mark.parametrize("name", REQUESTS)
def test_what_a_caller_sees_is_unchanged(name):
    query, options = REQUESTS[name]
    tables = _tables(query)
    described, algorithm, index = GOLDEN[name]
    result = join(query, tables, **options)
    assert (result.metrics.algorithm, result.metrics.index) == \
        (algorithm, index)
    if described is not None:
        assert planned(bind(query, tables), options).describe() == described


@pytest.mark.parametrize("name", REQUESTS)
def test_every_plan_is_a_valid_stage_tree(name):
    # ... and a request for the paper's door has no plan at all
    query, options = REQUESTS[name]
    bound = bind(query, _tables(query))
    if GOLDEN[name][0] is None:
        with pytest.raises(ConfigurationError, match=DOOR):
            planned(bound, options)
        return
    compiled = planned(bound, options)
    assert [spec.alias for spec in compiled.index_specs] == \
        [atom.alias for atom in bound.query.atoms]
    for spec in compiled.index_specs:
        assert sorted(spec.permutation) == \
            list(range(bound.relations[spec.alias].arity))
    assert (compiled.algorithm, compiled.engine) == ("generic", "batch")


def _outcome(query: str, tables: dict, **options):
    """What a caller gets: the answering driver and count, or the
    refusal's message."""
    try:
        result = join(query, tables, **options)
    except ConfigurationError as error:
        return str(error)
    return result.metrics.algorithm, result.metrics.index, result.count


@pytest.mark.parametrize("pinned", [False, True], ids=["free", "pinned"])
@pytest.mark.parametrize("engine", ["auto", "batch", "tuple"])
@pytest.mark.parametrize("query", [TRIANGLE, STAR, TRIANGLE_EARS],
                         ids=["triangle", "star", "triangle+ears"])
def test_unified_is_another_name_for_auto(query, engine, pinned):
    tables = _tables(query)
    options = {"engine": engine}
    if pinned:
        options["binary_order"] = _in_query_order(query)
    assert _outcome(query, tables, algorithm="unified", **options) == \
        _outcome(query, tables, algorithm="auto", **options)
    bound = bind(query, tables)
    if pinned or engine == "tuple":
        for algorithm in ("unified", "auto"):
            with pytest.raises(ConfigurationError, match=DOOR):
                planned(bound, dict(options, algorithm=algorithm))
        return
    unified = plan(bound, algorithm="unified", engine=engine)
    assert unified == plan(bound, algorithm="auto", engine=engine)
    assert unified.algorithm == "generic"


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
        with pytest.raises(QueryError, match="does not cover"):
            join(query, _tables(query), algorithm=algorithm,
                 binary_order=["bogus"])

    @pytest.mark.parametrize("options", [
        {"algorithm": "generic"}, {"algorithm": "hashtrie"},
        {"algorithm": "leapfrog"}, {"algorithm": "recursive"},
        {"algorithm": "generic", "engine": "tuple"},
        {"algorithm": "auto", "engine": "batch"},
        {"algorithm": "unified", "engine": "batch"},
    ], ids=["generic", "hashtrie", "leapfrog", "recursive", "generic/tuple",
            "auto/batch", "unified/batch"])
    def test_an_algorithm_that_cannot_honor_it_refuses(self, options):
        # no binary pipeline reads the order: refused like any option
        # the algorithm cannot honor
        with pytest.raises(ConfigurationError,
                           match="cannot honor binary_order"):
            join(TRIANGLE, _tables(TRIANGLE),
                 binary_order=_in_query_order(TRIANGLE), **options)
