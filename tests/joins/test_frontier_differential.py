"""Differential test of every join configuration against one oracle.

Random hypergraphs (cyclic, acyclic, stars, self-joins, arity 1-4, total
orders that leave an atom's attributes far apart) over hostile data
(empty and single-row relations, repeated rows, hubs, negative values,
values at +-2**62 and the int64 extremes, digit strings beside the
integers they spell, floats, integers past int64) run in one cell of
algorithm x engine x ``dynamic_seed`` x counting or materialising sink
x a write between two reads — of one session for a frontier plan, two
cold joins for a tuple driver, which no session serves — ``unified``
and ``parallel=2`` included.  Every cell has one expectation: the
brute-force *bag* — one result per combination of stored rows that
agrees on the shared attributes.  The tuple drivers join sets, so where
one of them would read a relation that repeats a row the expectation is
their ``QueryError`` instead.  The module constant that cuts the
expanded frontier into blocks is shrunk per example, so block
boundaries fall everywhere: inside a hub's children, between two rows,
exactly at the end.

A counting run stops at the *tail* — the suffix of the total order no
second atom binds — and multiplies subtree sizes instead of expanding
it, so every counting cell is also held to its own materialising twin
(same count, no more intermediates), and the ``TAIL`` seeds place the
tail by hand: shorter than the private set, the whole order, empty,
over an empty relation, a static seed, one-row blocks, two shards and
a unified plan whose ear rides the core.  The ``BAGS`` seeds put
repeated rows where their weights have to travel: through a cyclic
core, into the tail, across one-row blocks, into a materialising sink,
past a write.

A columnar trie builds a level the first time a run descends into it,
so what a run finds built depends on the runs before it.  The *deepening*
section executes one prepared join three times — count, materialise,
count — and holds each execution, rows in order and counters included,
to a fresh join that built its own tries; the ``DEEPEN`` seeds add the
wide-span (``np.lexsort``, rank-coded) build and arity 1.

The metamorphic checks need no oracle: permuting the atoms, renaming the
attributes and shuffling the rows leave the bag alone, and storing every
row of one relation ``m`` times multiplies the count by ``m`` per atom
that reads it.  The *route* differential holds ``auto`` and ``unified``
to one frontier plan per query — a single atom, an acyclic query, a
cyclic core with its ears — whatever the data, and to the bag.

Failures hypothesis shrank are kept below as ``@example`` seeds.
"""

from __future__ import annotations

import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import Relation, Session, join
from repro.errors import QueryError
from repro.joins import (
    BinaryHashJoin,
    GenericJoin,
    HashTrieJoin,
    LeapfrogTrieJoin,
    RecursiveJoin,
    batch,
    resolve_relations,
)
from repro.joins.executor import build_adapters
from repro.planner.agm import fractional_cover
from repro.planner.cardinality import Statistics
from repro.planner.hypergraph import Hypergraph
from repro.planner.optimizer import HybridOptimizer, is_alpha_acyclic
from repro.planner.query import Atom, JoinQuery, parse_query

ATTRIBUTES = "abcde"
INT64 = np.iinfo(np.int64)

#: value pools a case draws every column from, so that atoms do join
POOLS = {
    "small": [0, 1, 2, 3],
    "hub": [0, 0, 0, 0, 0, 1, 2, 3, 4, 5],
    "negative": [-3, -2, -1, 0, 1],
    "wide": [-2 ** 62, -1, 0, 2 ** 62, 2 ** 62 + 1],
    "extreme": [INT64.min, INT64.min + 1, 0, INT64.max - 1, INT64.max],
    "text": ["ant", "bee", "cat"],
    # a digit string never equals the integer it spells
    "digits": [1, 2, "1", "2"],
    "floats": [0.5, 1.5, 2, 3],
    "huge": [2 ** 63, 2 ** 64 + 1, -2 ** 63 - 1, 0, 1],
}
ALGORITHMS = ("generic", "auto", "unified", "binary", "hashtrie",
              "leapfrog", "recursive")
ENGINES = ("auto", "batch", "tuple")
SETTINGS = {"deadline": None,
            "suppress_health_check": [HealthCheck.too_slow,
                                      HealthCheck.data_too_large]}


@st.composite
def cases(draw):
    """``(query, tables, order, options)`` for one differential run."""
    pool_name = draw(st.sampled_from(sorted(POOLS)))
    pool = POOLS[pool_name]
    stored: dict[str, Relation] = {}
    atoms = []
    for position in range(draw(st.integers(1, 4))):
        arity = draw(st.integers(1, 4))
        attributes = tuple(draw(st.permutations(ATTRIBUTES))[:arity])
        # two stored relations per arity: picking the same one twice is
        # a self-join, under whatever attribute names each atom gives it
        name = f"R{arity}{draw(st.sampled_from('xy'))}"
        if name not in stored:
            rows = draw(st.lists(
                st.tuples(*[st.sampled_from(pool)] * arity), max_size=12))
            if draw(st.booleans()):
                rows = rows + rows[:3]              # repeated rows
            stored[name] = Relation(
                name, tuple(f"c{i}" for i in range(arity)), rows)
        atoms.append(Atom(name, attributes, alias=f"A{position}"))
    query = JoinQuery(atoms)
    order = None
    if draw(st.booleans()):
        order = tuple(draw(st.permutations(query.attributes)))
    written = draw(st.sampled_from(sorted(stored)))
    write = st.tuples(st.just(written), st.lists(
        st.tuples(*[st.sampled_from(pool)] * stored[written].arity),
        min_size=1, max_size=3))
    # strings beside integers have no order: only the frontier, which
    # compares codes, joins them (a sorted trie or the binary plan's
    # distinct-count estimate would have to sort them)
    mixed = pool_name == "digits"
    options = {
        "algorithm": draw(st.sampled_from(ALGORITHMS[:3] if mixed
                                          else ALGORITHMS)),
        "engine": draw(st.sampled_from(ENGINES[:2] if mixed else ENGINES)),
        "dynamic_seed": draw(st.booleans()),
        "materialize": draw(st.booleans()),
        "block": draw(st.sampled_from([1, 2, 3, 7, batch.BLOCK_ROWS])),
        "write": draw(st.one_of(st.none(), write)),
    }
    return query, stored, order, options


def brute_force(query: JoinQuery, tables: dict) -> Counter:
    """The bag: one result per combination of stored rows that agrees on
    every shared attribute, as attribute -> value items."""
    results: Counter = Counter()

    def extend(position: int, binding: dict) -> None:
        if position == len(query.atoms):
            results[frozenset(binding.items())] += 1
            return
        atom = query.atoms[position]
        for row in tables[atom.relation].rows:
            if all(binding.get(a, v) == v
                   for a, v in zip(atom.attributes, row)):
                extend(position + 1,
                       {**binding, **dict(zip(atom.attributes, row))})

    extend(0, {})
    return results


def bag(result) -> Counter:
    return Counter(frozenset(zip(result.attributes, row))
                   for row in result.rows)


def driver(query, tables: dict, options) -> str:
    """The driver a case's request runs: ``"batch"`` on the frontier,
    else the paper's door's — where ``auto`` is the hybrid optimizer's
    pick between the binary pipeline and the tuple Generic Join."""
    algorithm = options["algorithm"]
    if options["engine"] != "tuple" and algorithm in ("generic", "auto",
                                                      "unified"):
        return "batch"
    if algorithm in ("auto", "unified"):
        stats = Statistics.collect(resolve_relations(query, tables).values())
        choice = HybridOptimizer().decide(
            query, stats, is_alpha_acyclic(Hypergraph.from_query(query)),
            estimate=False)
        return "binary" if choice.algorithm == "binary" else "generic"
    return algorithm


def refuses(query, tables: dict, options) -> bool:
    """Does a tuple driver of the case read a relation that repeats a
    row?  It joins sets, so it must refuse it rather than answer."""
    if driver(query, tables, options) in ("batch", "binary"):
        return False
    return any(len(set(rows)) < len(rows)
               for rows in (tables[atom.relation].rows
                            for atom in query.atoms))


def run(query, tables, order, options, session=None, **extra):
    """One join in the case's cell, through ``session`` when given."""
    keywords = {"algorithm": options["algorithm"],
                "engine": options["engine"], "index": "sortedtrie",
                "order": order, "dynamic_seed": options["dynamic_seed"],
                "materialize": options["materialize"], **extra}
    saved = batch.BLOCK_ROWS
    batch.BLOCK_ROWS = options["block"]
    try:
        if session is None:
            return join(query, tables, **keywords)
        return session.execute(query, **keywords)
    finally:
        batch.BLOCK_ROWS = saved


def answer(query, tables, order, options, session=None, **extra) -> None:
    """Hold one run to the bag, or to the tuple drivers' refusal."""
    truth = brute_force(query, tables)
    if refuses(query, tables, options):
        with pytest.raises(QueryError, match="repeats a row"):
            run(query, tables, order, options, session, **extra)
        return
    got = run(query, tables, order, options, session, **extra)
    assert type(got.count) is int and got.count == sum(truth.values())
    if options["materialize"]:
        assert bag(got) == truth
        assert all(not hasattr(value, "dtype")
                   for row in got.rows[:20] for value in row)
    else:
        # a count is the length of the same run's materialised result,
        # reached without expanding more than that run does
        rows = run(query, tables, order, {**options, "materialize": True},
                   session, **extra)
        assert got.count == len(rows.rows)
        assert got.metrics.intermediate_tuples <= \
            rows.metrics.intermediate_tuples


def check(query, tables, order, options, **extra) -> None:
    """The case's cell on fresh copies of its relations; with a write,
    one session reads, the relation grows, the session reads again."""
    tables = {name: Relation(name, relation.schema, relation.rows)
              for name, relation in tables.items()}
    if options["write"] is None:
        answer(query, tables, order, options, **extra)
        return
    # a session serves frontier plans only: a tuple driver's reads on
    # either side of the write are cold joins
    with Session(tables) as session:
        reader = (session if driver(query, tables, options) == "batch"
                  else None)
        answer(query, tables, order, options, reader, **extra)
        name, rows = options["write"]
        tables[name].extend(rows)
        answer(query, tables, order, options, reader, **extra)


def _case(atoms, rows_by_name, order=None, **options):
    """An explicit seed in the shape :func:`cases` draws."""
    arity = {name: len(attributes) for name, attributes in atoms}
    stored = {name: Relation(name, tuple(f"c{i}" for i in range(arity[name])),
                             rows)
              for name, rows in rows_by_name.items()}
    query = JoinQuery([Atom(name, tuple(attributes), alias=f"A{i}")
                       for i, (name, attributes) in enumerate(atoms)])
    defaults = {"algorithm": "generic", "engine": "batch",
                "dynamic_seed": True, "materialize": True, "block": 2,
                "write": None}
    return query, stored, order, {**defaults, **options}


#: two-column fans over the hub value 0, and a triangle around it
FAN = [(0, v) for v in range(5)] + [(1, 7), (2, 8)]
HUB = [(0, 1), (1, 2), (2, 0), (0, 2), (2, 1), (1, 0)]
STAR = ([("W", "tab"), ("R", "tc"), ("S", "td")],
        {"W": [(0, 1, 2), (0, 1, 3), (0, 2, 2), (1, 5, 6)], "R": FAN,
         "S": HUB})

#: counting runs that meet the tail from every side
TAIL = {
    # a private attribute first: the tail (c) is shorter than the
    # private set (a, c)
    "private_first": _case(
        [("R", "ab"), ("S", "bc")], {"R": FAN, "S": HUB},
        order=("a", "b", "c"), materialize=False),
    # ... and in the middle, expanded although nothing joins on it
    "private_middle": _case(
        [("R", "ab"), ("S", "bc"), ("T", "cd")],
        {"R": FAN, "S": HUB, "T": FAN},
        order=("b", "a", "c", "d"), materialize=False),
    # every attribute private: the tail starts at level 0
    "single_atom": _case(
        [("W", "abc")], {"W": [(0, 1, 2), (0, 1, 3), (4, 5, 6)]},
        materialize=False),
    "cross_product": _case(
        [("R", "ab"), ("S", "cd"), ("P", "e")],
        {"R": FAN, "S": HUB, "P": [(3,), (4,)]},
        materialize=False),
    # no private attribute: the tail is empty
    "triangle": _case(
        [("E", "ab"), ("E", "bc"), ("E", "ca")], {"E": HUB},
        materialize=False),
    # an empty relation, joined and as a cross-product factor
    "empty_joined": _case(
        [("R", "ab"), ("S", "bc")], {"R": FAN, "S": []},
        materialize=False),
    "empty_factor": _case(
        [("R", "ab"), ("P", "c")], {"R": FAN, "P": []}, materialize=False),
    # a star whose three satellites are counted from two bound levels,
    # one bound level and the root's neighbour
    "star": _case(*STAR, materialize=False),
    "star_static_seed_block_1": _case(
        *STAR, materialize=False, dynamic_seed=False, block=1),
    # the triangle's ear rides the core's stage and is its tail
    "unified_ear_rides": _case(
        [("E", "ab"), ("E", "bc"), ("E", "ca"), ("R", "ad")],
        {"E": HUB, "R": FAN}, materialize=False, algorithm="unified"),
}

#: the triangle over a repeated edge, and a star over repeated rows
REPEATED_EDGE = [(0, 1), (1, 2), (2, 0), (0, 1)]
REPEATED_STAR = {"R": [(1, 2), (1, 2), (1, 3)], "S": [(1, 5), (1, 5)]}

#: repeated rows where the weights have to travel
BAGS = {
    # through a cyclic core: 6, as the binary pipeline counts
    "triangle": _case([("E", "ab"), ("E", "bc"), ("E", "ca")],
                      {"E": REPEATED_EDGE}),
    "triangle_counted": _case([("E", "ab"), ("E", "bc"), ("E", "ca")],
                              {"E": REPEATED_EDGE}, materialize=False),
    # counted from the tail, and materialised a row a block
    "star_tail": _case([("R", "ab"), ("S", "ac")], REPEATED_STAR,
                       materialize=False),
    "star_rows": _case([("R", "ab"), ("S", "ac")], REPEATED_STAR, block=1),
    # multiplied in at a last level in the middle of the order
    "chain": _case([("R", "ab"), ("S", "bc"), ("T", "cd")],
                   {"R": FAN + FAN[:2], "S": HUB + HUB, "T": FAN},
                   order=("b", "a", "c", "d"), materialize=False),
    # string keys that repeat, under the unified planner
    "strings": _case([("R", "ab"), ("S", "ac")],
                     {"R": [("x", 1), ("x", 1), ("y", 2)],
                      "S": [("x", 5), ("y", 6), ("y", 6)]},
                     algorithm="unified"),
    # the tuple engine refuses what the others count
    "refused": _case([("E", "ab"), ("E", "bc"), ("E", "ca")],
                     {"E": REPEATED_EDGE}, engine="tuple"),
    # a write that repeats a row between two reads of one session
    "write": _case([("R", "ab"), ("S", "ac")], {"R": [(1, 2)], "S": [(1, 5)]},
                   write=("R", [(1, 2)]), algorithm="auto"),
}


def examples(seeds):
    def decorate(test):
        for seed in seeds:
            test = example(seed)(test)
        return test
    return decorate


@settings(max_examples=300, **SETTINGS)
@given(cases())
# the triangle over one hub, cut inside the hub's children
@example(_case([("E", "ab"), ("E", "bc"), ("E", "ca")],
               {"E": [(0, v) for v in range(1, 6)]
                + [(v, 0) for v in range(1, 6)]
                + [(1, 2), (2, 3), (3, 1)]}, block=3))
# an order that binds an atom's second attribute first and leaves its
# first for last: node columns ride along unread for two levels
@example(_case([("R", "ab"), ("S", "bc"), ("T", "cd")],
               {"R": [(0, 1), (1, 1)], "S": [(1, 2), (1, 3)],
                "T": [(2, 0), (3, 1)]}, order=("d", "b", "a", "c"), block=1))
# int64 extremes on both sides of a probe
@example(_case([("R", "ab"), ("S", "ba")],
               {"R": [(INT64.min, INT64.max), (0, 0), (INT64.max, INT64.min)],
                "S": [(INT64.max, INT64.min), (0, 0), (5, 5)]}))
# an empty relation beside a non-empty one
@example(_case([("R", "ab"), ("S", "b")],
               {"R": [(1, 2)], "S": []}))
@examples(TAIL.values())
@examples(BAGS.values())
def test_batch_equals_tuple_equals_brute_force(case):
    check(*case)


@settings(max_examples=6, **SETTINGS)
@given(cases())
@examples(TAIL[name] for name in ("private_first", "star", "empty_joined"))
@examples(BAGS[name] for name in ("triangle", "star_tail", "strings"))
def test_sharded_batch_equals_brute_force(case):
    # the engines that answer bags
    query, tables, order, options = case
    algorithm = options["algorithm"]
    options = {**options, "write": None,
               "algorithm": algorithm if algorithm in ("generic", "auto",
                                                       "unified")
               else "generic",
               "engine": "batch" if options["engine"] == "tuple"
               else options["engine"]}
    check(query, tables, order, options, parallel=2)


def test_unified_shards_a_core_with_ears_and_a_disconnected_atom():
    # ears that ride the core, and an atom that shares no attribute with
    # it (replicated to every shard); a repeated row in each
    for atoms, rows in (
            ([("E", "ab"), ("E", "bc"), ("E", "ca"), ("R", "ad")],
             {"E": HUB + HUB[:1], "R": FAN + FAN[:2]}),
            ([("E", "ab"), ("E", "bc"), ("E", "ca"), ("S", "de")],
             {"E": HUB, "S": FAN + FAN[:1]})):
        query, tables, _, _ = _case(atoms, rows)
        truth = brute_force(query, tables)
        for materialize in (False, True):
            got = join(query, tables, algorithm="unified", parallel=2,
                       materialize=materialize)
            assert got.count == sum(truth.values())
            if materialize:
                assert bag(got) == truth


@pytest.mark.parametrize("name, tail_levels, tail_rows, count", [
    ("private_first", 1, 3, 6), ("private_middle", 1, 6, 14),
    ("single_atom", 3, 1, 3), ("cross_product", 5, 1, 84),
    ("triangle", 0, 0, 6), ("empty_joined", 2, 0, 0),
    ("empty_factor", 3, 1, 0), ("star", 4, 2, 32),
    ("star_static_seed_block_1", 4, 2, 32), ("unified_ear_rides", 1, 6, 14),
])
def test_tail_seeds_meet_the_tail_where_they_say(name, tail_levels,
                                                 tail_rows, count):
    """The seeds above are only worth keeping while the tail is where
    their comments put it: the profile's two counters say so, and a
    materialising run has no tail."""
    query, tables, order, options = TAIL[name]
    for materialize, expected in ((False, (tail_levels, tail_rows)),
                                  (True, (0, 0))):
        result = run(query, tables, order,
                     {**options, "materialize": materialize}, profile=True)
        counters = result.profile.counters
        assert result.count == count
        assert (counters["frontier.tail_levels"],
                counters["frontier.tail_rows"]) == expected


# ----------------------------------------------------------------------
# one answer, whatever the query's shape
# ----------------------------------------------------------------------
#: the answers that used to depend on the query's shape: (query,
#: relations, the bag count, the relation a tuple driver names)
ONE_ANSWER = {
    "triangle": ("E1=E(a,b), E2=E(b,c), E3=E(c,a)",
                 {"E": Relation("E", ("src", "dst"), REPEATED_EDGE)}, 6,
                 "E1"),
    "star": ("R(a,b), S(a,c)",
             {name: Relation(name, ("a", attribute), rows)
              for (name, rows), attribute in zip(REPEATED_STAR.items(),
                                                 "bc")}, 6, "R"),
}


@pytest.mark.parametrize("name", sorted(ONE_ANSWER))
def test_every_engine_answers_the_bag(name):
    query, tables, count, first = ONE_ANSWER[name]
    for algorithm in ("generic", "auto", "unified", "binary"):
        for engine in ("auto", "batch"):
            assert join(query, tables, algorithm=algorithm,
                        engine=engine).count == count, (algorithm, engine)
        if algorithm != "binary":    # only the frontier shards
            assert join(query, tables, algorithm=algorithm,
                        parallel=2).count == count, algorithm
    # under the tuple engine the binary pipeline still joins bags — and
    # so does auto's binary route over the acyclic star
    assert join(query, tables, algorithm="binary",
                engine="tuple").count == count
    if name == "star":
        assert join(query, tables, algorithm="auto",
                    engine="tuple").count == count
    # the tuple drivers join sets, and refuse the relation by name
    for options in ({"algorithm": "generic", "engine": "tuple"},
                    {"algorithm": "hashtrie"}, {"algorithm": "leapfrog"},
                    {"algorithm": "recursive"}):
        with pytest.raises(QueryError, match=f"'{first}' repeats a row"):
            join(query, tables, **options)


#: a tuple driver constructed directly, as the paper's benches do
DIRECT = {
    "leapfrog": lambda q, r: LeapfrogTrieJoin(q, r),
    "recursive": lambda q, r: RecursiveJoin(q, r),
    "hashtrie": lambda q, r: HashTrieJoin(q, r),
    "generic": lambda q, r: GenericJoin(q, build_adapters(
        q, r, ("a", "b", "c"))),
}


@pytest.mark.parametrize("driver", sorted(DIRECT))
def test_a_directly_built_tuple_driver_refuses_a_bag(driver):
    # the check lives in the build each driver does for itself, so a
    # driver constructed outside join() cannot answer the set of a bag
    query, tables, count, first = ONE_ANSWER["triangle"]
    query = parse_query(query)
    relations = resolve_relations(query, tables)
    with pytest.raises(QueryError, match=f"'{first}' repeats a row"):
        DIRECT[driver](query, relations).run()
    # the binary pipeline joins bags
    assert BinaryHashJoin(query, relations).run().count == count


# ----------------------------------------------------------------------
# metamorphic checks
# ----------------------------------------------------------------------
@settings(max_examples=100, **SETTINGS)
@given(cases(), st.sampled_from(("generic", "auto", "unified", "binary")),
       st.randoms(use_true_random=False), st.integers(2, 3))
@example(BAGS["triangle"], "generic", random.Random(0), 2)
@example(BAGS["strings"], "auto", random.Random(1), 3)
def test_what_must_not_change_the_bag_does_not(case, algorithm, rng, copies):
    """Permuting atoms, renaming attributes and shuffling rows leave the
    bag as it is; storing every row of one relation ``copies`` times
    multiplies the count by ``copies`` per atom that reads it."""
    query, tables, _, _ = case
    expected = bag(join(query, tables, algorithm=algorithm,
                        materialize=True))
    permuted = JoinQuery(rng.sample(list(query.atoms), len(query.atoms)))
    assert bag(join(permuted, tables, algorithm=algorithm,
                    materialize=True)) == expected
    names = dict(zip(query.attributes,
                     rng.sample([f"v{i}" for i in range(len(query.attributes))],
                                len(query.attributes))))
    renamed = JoinQuery([Atom(atom.relation,
                              tuple(names[a] for a in atom.attributes),
                              alias=atom.alias) for atom in query.atoms])
    assert bag(join(renamed, tables, algorithm=algorithm,
                    materialize=True)) == Counter(
        {frozenset((names[a], v) for a, v in row): n
         for row, n in expected.items()})
    shuffled = {name: Relation(name, relation.schema,
                               rng.sample(relation.rows, len(relation.rows)))
                for name, relation in tables.items()}
    assert bag(join(query, shuffled, algorithm=algorithm,
                    materialize=True)) == expected
    name = rng.choice(sorted(tables))
    readers = sum(atom.relation == name for atom in query.atoms)
    grown = {**tables, name: Relation(name, tables[name].schema,
                                      tables[name].rows * copies)}
    assert join(query, grown, algorithm=algorithm).count == \
        sum(expected.values()) * copies ** readers


# ----------------------------------------------------------------------
# the AGM bound, level by level
# ----------------------------------------------------------------------
@settings(max_examples=40, **SETTINGS)
@given(cases())
@examples(BAGS[name] for name in ("triangle", "star_tail"))
def test_every_level_stays_within_its_agm_bound(case):
    """A Generic Join is worst-case optimal level by level: the bindings
    of ``order[:i+1]`` that survive level ``i`` are a subset of the join
    of the atoms restricted to that prefix, so they number at most its
    AGM bound, each atom sized by its distinct rows.  Held on the
    frontier and on the tuple driver, which joins the distinct rows."""
    query, tables, order, options = case
    distinct = {name: Relation(name, relation.schema,
                               list(dict.fromkeys(relation.rows)))
                for name, relation in tables.items()}
    sizes = {atom.alias: len(distinct[atom.relation].rows)
             for atom in query.atoms}
    options = {**options, "algorithm": "generic", "materialize": True}
    # strings beside integers have no order: the tuple driver's sorted
    # trie cannot hold them
    strings = {isinstance(value, str) for relation in tables.values()
               for row in relation.rows for value in row}
    engines = ("auto",) if len(strings) == 2 else ("auto", "tuple")
    for engine in engines:
        result = run(query, tables if engine == "auto" else distinct, order,
                     {**options, "engine": engine}, profile=True)
        total = tuple(level.label for level in result.profile.levels)
        for depth, level in enumerate(result.profile.levels):
            prefix = set(total[:depth + 1])
            edges = {atom.alias: set(atom.attributes) & prefix
                     for atom in query.atoms
                     if prefix.intersection(atom.attributes)}
            cover = fractional_cover(
                Hypergraph(total[:depth + 1], edges),
                {alias: sizes[alias] for alias in edges})
            assert level.survivors <= cover.bound * (1 + 1e-6), (
                f"{engine}: level {depth} binds {total[:depth + 1]}: "
                f"{level.survivors} survivors over the AGM bound "
                f"{cover.bound:.6g} of cover {cover.weights}")


# ----------------------------------------------------------------------
# deepening: levels appear between executions
# ----------------------------------------------------------------------
#: builds the seeds above do not reach
DEEPEN = {
    # spans too wide to pack: np.lexsort, every level on rank codes
    "wide_span": _case(
        [("R", "ab"), ("S", "bc"), ("T", "bd")],
        {"R": [(INT64.min, 1), (INT64.max, 2), (0, 1), (0, INT64.max)],
         "S": [(1, INT64.min), (2, INT64.max), (INT64.max, 0), (1, 5)],
         "T": [(1, 2 ** 62), (1, -2 ** 62), (2, 0)]}),
    # arity 1 beside arity 3: the only level is the last one
    "arity_one": _case(
        [("P", "a"), ("W", "abc"), ("Q", "d")],
        {"P": [(0,), (1,), (0,)], "W": [(0, 1, 2), (0, 1, 3), (1, 5, 6)],
         "Q": [(7,), (8,)]}),
}


def observed(result, materialize: bool) -> tuple:
    """Everything a run says about itself that its tries' history must
    not change: the answer (rows in order) and the work counted."""
    levels = [(lv.candidates, lv.survivors, lv.seed_counts)
              for lv in result.profile.levels]
    return (result.count, result.rows if materialize else None,
            result.metrics.intermediate_tuples, result.metrics.lookups,
            levels)


@settings(max_examples=60, **SETTINGS)
@given(cases())
@examples(TAIL[name] for name in (
    "private_first", "private_middle", "cross_product", "empty_joined",
    "empty_factor", "star", "triangle"))
@examples(DEEPEN.values())
@examples(BAGS[name] for name in ("chain", "strings"))
def test_levels_appear_between_executions(case):
    query, tables, order, options = case
    keywords = {"engine": "batch", "index": "sortedtrie", "order": order,
                "dynamic_seed": options["dynamic_seed"]}
    saved = batch.BLOCK_ROWS
    batch.BLOCK_ROWS = options["block"]
    try:
        fresh = {materialize: observed(
                     join(query, tables, materialize=materialize,
                          profile=True, **keywords), materialize)
                 for materialize in (False, True)}
        prepared = Session(tables).prepare(query, **keywords)
        for materialize in (False, True, False):
            got = prepared.execute(materialize=materialize, profile=True)
            assert observed(got, materialize) == fresh[materialize], \
                materialize
    finally:
        batch.BLOCK_ROWS = saved


@pytest.mark.parametrize("name", ["private_first", "star"])
def test_levels_appear_between_sharded_executions(name):
    query, tables, order, options = TAIL[name]
    keywords = {"engine": "batch", "index": "sortedtrie", "order": order}
    rows = join(query, tables, materialize=True, **keywords).rows
    with Session(tables).prepare(query, parallel=2, **keywords) as prepared:
        assert prepared.execute().count == len(rows)
        assert sorted(prepared.execute(materialize=True).rows) == sorted(rows)
        assert prepared.execute().count == len(rows)


@pytest.mark.parametrize("name, built, total", [
    # W(tab), R(tc), S(td): one level each, whatever their arity
    ("star", 3, 7),
    # a private attribute ahead of the join: R(ab) is read to b
    ("private_first", 3, 4),
    # S(bc) is bound at b and c before T's private d: two of its two
    ("private_middle", 5, 6),
    # nothing bound: the roots' lengths answer, no level is built
    ("cross_product", 0, 5),
    ("triangle", 6, 6),
])
def test_a_count_builds_the_levels_it_binds(name, built, total):
    query, tables, order, options = TAIL[name]
    counted = run(query, tables, order, options, profile=True)
    counters = counted.profile.counters
    assert (counters["frontier.levels_built"],
            counters["frontier.levels_total"]) == (built, total)
    spans = [span["args"] for span in counted.profile.spans
             if span["name"] == "build_index"]
    assert sum(args.get("levels", 0) for args in spans) == built
    # ... a materialising run all of them, and it says so per atom
    rows = run(query, tables, order, {**options, "materialize": True},
               profile=True)
    assert rows.profile.counters["frontier.levels_built"] == total
    assert all(f"{alias} built {arity} of {arity} levels"
               in rows.profile.render()
               for alias, (_, arity) in rows.profile.trie_levels.items())
    assert counted.profile.trie_levels.keys() == \
        {atom.alias for atom in query.atoms}


# ----------------------------------------------------------------------
# counts past int64
# ----------------------------------------------------------------------
#: two keys fanning out to 70 000 and 50 000 rows
WIDE, NARROW = 70_000, 50_000


@pytest.mark.parametrize("atoms, expected, without_last", [
    # a star: per key, the product of four fans
    ([("F", "tw"), ("F", "tx"), ("F", "ty"), ("F", "tz")],
     WIDE ** 4 + NARROW ** 4, WIDE ** 3 + NARROW ** 3),
    # a cross product: every atom still at its root
    ([("F", "ab"), ("F", "cd"), ("F", "ef"), ("F", "gh")],
     (WIDE + NARROW) ** 4, (WIDE + NARROW) ** 3),
    # both at once
    ([("F", "tw"), ("F", "tx"), ("F", "ty"), ("F", "cd")],
     (WIDE ** 3 + NARROW ** 3) * (WIDE + NARROW), WIDE ** 3 + NARROW ** 3),
])
def test_a_count_past_int64_is_an_exact_python_int(atoms, expected,
                                                   without_last):
    """The tail's product is the engine's one multiply of data-sized
    numbers.  Past 2**63 it must come back as the exact Python int —
    never wrapped, never a float; one atom fewer fits int64, takes the
    array product and obeys the same arithmetic."""
    assert expected > 2 ** 63 > without_last
    rows = [(key, value) for key, width in enumerate((WIDE, NARROW))
            for value in range(width)]
    query, tables, _, _ = _case(atoms, {"F": rows})
    for options in ({}, {"dynamic_seed": False}):
        got = join(query, tables, engine="batch", **options)
        assert type(got.count) is int and got.count == expected
        assert type(got.metrics.result_count) is int
        assert got.metrics.result_count == expected
    query, tables, _, _ = _case(atoms[:3], {"F": rows})
    small = join(query, tables, engine="batch")
    assert type(small.count) is int and small.count == without_last


def test_weights_past_int64_are_exact_python_ints():
    """Repeated rows are weights, and weights are products: four atoms
    over one key stored 70 000 times weigh 70 000**4 per binding, past
    2**63, and come back exact."""
    rows = [(0,)] * WIDE + [(1,)] * NARROW
    atoms = [("F", "t")] * 4
    query, tables, _, _ = _case(atoms, {"F": rows})
    for options in ({}, {"dynamic_seed": False}):
        got = join(query, tables, engine="batch", **options)
        assert type(got.count) is int
        assert got.count == WIDE ** 4 + NARROW ** 4
    query, tables, _, _ = _case(atoms[:3], {"F": rows})
    assert join(query, tables).count == WIDE ** 3 + NARROW ** 3


# ----------------------------------------------------------------------
# block boundaries, placed by hand
# ----------------------------------------------------------------------
def hub_star(width: int):
    """``R(a,b), S(b,c)``: hub ``a=0`` fans out to ``width`` values of
    ``b``, each with two values of ``c`` — ``2 * width`` results."""
    r = Relation("R", ("a", "b"), [(0, b) for b in range(width)])
    s = Relation("S", ("b", "c"),
                 [(b, c) for b in range(width) for c in (10, 11)])
    query = JoinQuery([Atom("R", ("a", "b")), Atom("S", ("b", "c"))])
    return query, {"R": r, "S": s}


@pytest.mark.parametrize("block, what", [
    (12, "the hub's children fill exactly one block"),
    (11, "one row more than a block"),
    (13, "one row fewer"),
    (5, "one hub wider than two blocks"),
    (1, "a block per expanded row"),
])
def test_block_boundaries(block, what, monkeypatch):
    query, tables = hub_star(12)
    monkeypatch.setattr(batch, "BLOCK_ROWS", block)
    result = join(query, tables, engine="batch", order=("a", "b", "c"),
                  materialize=True, profile=True)
    assert sorted(result.rows) == sorted(
        (0, b, c) for b in range(12) for c in (10, 11)), what
    counters = result.profile.counters
    # level a: 1 row; level b: 12 expanded; level c: 24 expanded, cut
    # per incoming block of b-survivors
    assert counters["frontier.peak_rows"] <= 3 * block + 1
    levels = result.profile.levels
    assert [(lv.candidates, lv.survivors) for lv in levels] == \
        [(1, 1), (12, 12), (24, 24)]
    reference = join(query, tables, engine="tuple", order=("a", "b", "c"),
                     profile=True).profile.levels
    assert [(lv.candidates, lv.survivors) for lv in reference] == \
        [(lv.candidates, lv.survivors) for lv in levels]


def _held_to_tuple(query, tables, order):
    """Materialise through the frontier and the tuple driver: same rows,
    same per-level candidates and survivors; the frontier's levels."""
    got = join(query, tables, engine="batch", order=order, materialize=True,
               profile=True)
    reference = join(query, tables, engine="tuple", index="sortedtrie",
                     order=order, materialize=True, profile=True)
    assert sorted(got.rows) == sorted(reference.rows)
    levels = got.profile.levels
    assert [(lv.candidates, lv.survivors) for lv in levels] == \
        [(lv.candidates, lv.survivors) for lv in reference.profile.levels]
    return levels


@pytest.mark.parametrize("block", [3, 4, 5, 8192])
def test_one_row_blocks_past_the_first_row(block, monkeypatch):
    """A block whose rows are all children of one frontier row is laid out
    as one range.  Level ``b`` splits its rows by seed: R seeds ``a=0``
    (1 child) and ``a=2`` (8), S seeds ``a=1`` (2 of R's 6).  R's
    ``chosen`` rows are a strict subset, and the second of them — not the
    block's first, its children not next to the first's — spreads its 8
    children over several blocks (a block of at least 3 keeps the three
    ``a`` rows in one frontier; 8192 lays all 9 candidates out at once)."""
    r = Relation("R", ("a", "b"), [(0, 0)] + [(1, b) for b in range(6)]
                 + [(2, b) for b in range(8)])
    s = Relation("S", ("a", "b"), [(0, b) for b in range(5)]
                 + [(1, 1), (1, 4)] + [(2, b) for b in range(10)])
    query = JoinQuery([Atom("R", ("a", "b")), Atom("S", ("a", "b"))])
    monkeypatch.setattr(batch, "BLOCK_ROWS", block)
    levels = _held_to_tuple(query, {"R": r, "S": s}, ("a", "b"))
    assert levels[1].seed_counts == {"R": 2, "S": 1}
    assert (levels[1].candidates, levels[1].survivors) == (11, 11)


@pytest.mark.parametrize("block", [1, 2, 8192])
def test_an_atom_joining_at_its_root_below_the_first_level(block,
                                                           monkeypatch):
    """T first joins at level ``b``, still at its root, beside S's nodes
    under the block's ``a`` rows: its one range stands for all of them
    (three at 8192, two then one at a block of 2, one at a time at 1),
    and the seed goes to T where S has more children, to S where fewer."""
    r = Relation("R", ("a",), [(0,), (1,), (2,)])
    s = Relation("S", ("a", "b"), [(0, b) for b in range(6)]
                 + [(1, 2)] + [(2, b) for b in range(1, 5)] + [(3, 0)])
    t = Relation("T", ("b",), [(1,), (2,), (4,)])
    query = JoinQuery([Atom("R", ("a",)), Atom("S", ("a", "b")),
                       Atom("T", ("b",))])
    monkeypatch.setattr(batch, "BLOCK_ROWS", block)
    levels = _held_to_tuple(query, {"R": r, "S": s, "T": t}, ("a", "b"))
    assert levels[1].seed_counts == {"S": 1, "T": 2}
    assert (levels[1].candidates, levels[1].survivors) == (7, 7)


def test_seeds_sized_differently_from_the_tuple_driver():
    """The tuple driver sizes a participant by the tuples below its
    prefix, the frontier by its distinct children, so at level ``a`` the
    one seeds R (4 values against S's 11 tuples) and the other S (3
    values): candidates differ, while rows and survivors are equal."""
    r = Relation("R", ("a",), [(a,) for a in range(4)])
    s = Relation("S", ("a", "b"), [(0, b) for b in range(6)] + [(1, 0)]
                 + [(2, b) for b in range(4)])
    query = JoinQuery([Atom("R", ("a",)), Atom("S", ("a", "b"))])
    tables = {"R": r, "S": s}
    got = join(query, tables, engine="batch", order=("a", "b"),
               materialize=True, profile=True)
    reference = join(query, tables, engine="tuple", index="sortedtrie",
                     order=("a", "b"), materialize=True, profile=True)
    assert sorted(got.rows) == sorted(reference.rows)
    assert [lv.survivors for lv in got.profile.levels] == \
        [lv.survivors for lv in reference.profile.levels]
    assert (got.profile.levels[0].candidates,
            reference.profile.levels[0].candidates) == (3, 4)


# ----------------------------------------------------------------------
# route differential: one frontier stage, whatever the data
# ----------------------------------------------------------------------
CORE = [("E", "ab"), ("E", "bc"), ("E", "ca")]
SHAPES = {
    "scan": [("H", "tx")],
    "star2": [("H", "tx"), ("S1", "ty")],
    "star4": [("H", "tx"), ("S1", "ty"), ("S2", "tz"), ("S1", "tw")],
    "chain": [("H", "ab"), ("S1", "bc"), ("S2", "cd")],
    "contained": [("W", "abc"), ("S1", "ab")],
    "tail": CORE + [("S1", "ad")],
    "two_ears": CORE + [("S1", "ad"), ("S2", "be")],
    "ear_chain": CORE + [("S1", "ad"), ("S2", "de")],
}
#: values that are not int64, for every value of every relation or for
#: the last column of one
SPOILERS = {"text": lambda v: f"v{v}", "floats": lambda v: v + 0.5,
            "huge": lambda v: 2 ** 63 + v}


@st.composite
def route_cases(draw):
    """``(query, tables, ordered)`` over small data that is
    duplicate-free, or repeats rows of one relation, or holds strings,
    floats or integers past int64 — everywhere, or in one relation's
    last column.  ``ordered``: every value compares with every other,
    which the tuple engine's sorted trie needs (strings beside integers
    do not)."""
    atoms = SHAPES[draw(st.sampled_from(sorted(SHAPES)))]
    spoil = draw(st.sampled_from(["nothing", "duplicates", *SPOILERS]))
    everywhere = draw(st.booleans())
    victim = draw(st.sampled_from(sorted({name for name, _ in atoms})))
    tables = {}
    for name, attributes in atoms:
        if name in tables:
            continue
        rows = sorted(draw(st.sets(
            st.tuples(*[st.integers(0, 3)] * len(attributes)),
            min_size=1, max_size=8)))
        if spoil == "duplicates" and name == victim:
            rows = rows + rows[:2]
        elif spoil in SPOILERS and everywhere:
            rows = [tuple(map(SPOILERS[spoil], row)) for row in rows]
        elif spoil in SPOILERS and name == victim:
            rows = [row[:-1] + (SPOILERS[spoil](row[-1]),) for row in rows]
        tables[name] = Relation(
            name, tuple(f"c{i}" for i in range(len(attributes))), rows)
    query = JoinQuery([Atom(name, tuple(attributes), alias=f"A{i}")
                       for i, (name, attributes) in enumerate(atoms)])
    return query, tables, not (spoil == "text" and not everywhere)


@settings(max_examples=150, **SETTINGS)
@given(route_cases())
def test_route_differential(case):
    """``auto`` and ``unified`` put every query on one frontier plan
    unless the engine is ``"tuple"``, whatever its data, and every route
    answers the bag."""
    query, tables, ordered = case
    truth = brute_force(query, tables)
    for algorithm in ("auto", "unified"):
        for engine in ("auto", "batch", "tuple")[:3 if ordered else 2]:
            # sortedtrie: the tuple engine's index that orders floats
            options = {"algorithm": algorithm, "engine": engine,
                       "index": "sortedtrie"}
            if engine != "tuple":
                assert join(query, tables, **options).metrics.algorithm \
                    == "generic_join_batch"
            if refuses(query, tables, options):
                with pytest.raises(QueryError, match="repeats a row"):
                    join(query, tables, **options)
                continue
            got = join(query, tables, materialize=True, **options)
            assert bag(got) == truth, (algorithm, engine)
