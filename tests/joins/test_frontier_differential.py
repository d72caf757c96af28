"""Differential test of the frontier-at-a-time batch engine.

Random hypergraphs (cyclic, acyclic, stars, self-joins, arity 1-4, total
orders that leave an atom's attributes far apart) over hostile data
(empty and single-row relations, duplicates, hubs, negative values,
values at +-2**62 and the int64 extremes, string columns) are joined
three ways — ``engine="batch"``, ``engine="tuple"`` and a nested-loop
brute force — under every knob that reaches the driver: ``dynamic_seed``
on and off, counting and materialising sinks, ``unified`` and
``parallel=2``.  The module constant that cuts the expanded frontier
into blocks is shrunk per example, so block boundaries fall everywhere:
inside a hub's children, between two rows, exactly at the end.

A counting run stops at the *tail* — the suffix of the total order no
second atom binds — and multiplies subtree sizes instead of expanding
it, so every counting cell is also held to its own materialising twin
(same count, no more intermediates), and the ``TAIL`` seeds place the
tail by hand: shorter than the private set, the whole order, empty,
over an empty relation, a static seed, one-row blocks, two shards and
a unified plan whose ear rides the core.

A columnar trie builds a level the first time a run descends into it,
so what a run finds built depends on the runs before it.  The *deepening*
section executes one prepared join three times — count, materialise,
count — and holds each execution, rows in order and counters included,
to a fresh join that built its own tries; the ``DEEPEN`` seeds add the
wide-span (``np.lexsort``, rank-coded) build and arity 1.

Failures hypothesis shrank are kept below as ``@example`` seeds.

The last section is the *route* differential: which engine ``auto`` and
``unified`` give an acyclic query's atoms, and that the answer — as a
bag — is the binary pipeline's either way.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from repro import Relation, Session, join
from repro.engine import bind, plan
from repro.joins import batch
from repro.planner.query import Atom, JoinQuery

ATTRIBUTES = "abcde"
INT64 = np.iinfo(np.int64)

#: value pools a case draws every column from, so that atoms do join
POOLS = {
    "small": [0, 1, 2, 3],
    "hub": [0, 0, 0, 0, 0, 1, 2, 3, 4, 5],
    "negative": [-3, -2, -1, 0, 1],
    "wide": [-2 ** 62, -1, 0, 2 ** 62, 2 ** 62 + 1],
    "extreme": [INT64.min, INT64.min + 1, 0, INT64.max - 1, INT64.max],
    # alphabetic on purpose: digit strings would be read as integers
    "text": ["ant", "bee", "cat"],
}


@st.composite
def cases(draw):
    """``(query, tables, order, options)`` for one differential run."""
    pool = POOLS[draw(st.sampled_from(sorted(POOLS)))]
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
                rows = rows + rows[:3]              # duplicates
            stored[name] = Relation(
                name, tuple(f"c{i}" for i in range(arity)), rows)
        atoms.append(Atom(name, attributes, alias=f"A{position}"))
    query = JoinQuery(atoms)
    order = None
    if draw(st.booleans()):
        order = tuple(draw(st.permutations(query.attributes)))
    options = {
        "dynamic_seed": draw(st.booleans()),
        "materialize": draw(st.booleans()),
        "mode": draw(st.sampled_from(["plain", "plain", "unified"])),
        "block": draw(st.sampled_from([1, 2, 3, 7, batch.BLOCK_ROWS])),
    }
    return query, stored, order, options


def brute_force(query: JoinQuery, tables: dict) -> set:
    """Every consistent binding, as attribute -> value items (hashable)."""
    results = set()

    def extend(position: int, binding: dict) -> None:
        if position == len(query.atoms):
            results.add(frozenset(binding.items()))
            return
        atom = query.atoms[position]
        for row in set(tables[atom.relation].rows):
            if all(binding.get(a, v) == v
                   for a, v in zip(atom.attributes, row)):
                extend(position + 1,
                       {**binding, **dict(zip(atom.attributes, row))})

    extend(0, {})
    return results


def labelled(result) -> list:
    return [frozenset(zip(result.attributes, row)) for row in result.rows]


def run_batch(query, tables, order, options, **extra):
    keywords = {"engine": "batch", "index": "sortedtrie",
                "dynamic_seed": options["dynamic_seed"],
                "materialize": options["materialize"], **extra}
    if options["mode"] == "unified":
        keywords["algorithm"] = "unified"
    saved = batch.BLOCK_ROWS
    batch.BLOCK_ROWS = options["block"]
    try:
        return join(query, tables, order=order, **keywords)
    finally:
        batch.BLOCK_ROWS = saved


def check(query, tables, order, options, **extra) -> None:
    truth = brute_force(query, tables)
    got = run_batch(query, tables, order, options, **extra)
    reference = join(query, tables, order=order, engine="tuple",
                     index="sortedtrie", materialize=True,
                     dynamic_seed=options["dynamic_seed"])
    assert sorted(map(sorted, labelled(reference)), key=repr) == \
        sorted(map(sorted, truth), key=repr)
    if not options["materialize"]:
        # a count is the length of the same run's materialised result,
        # reached without expanding more than that run does
        rows = run_batch(query, tables, order,
                         {**options, "materialize": True}, **extra)
        assert type(got.count) is int and got.count == len(rows.rows)
        assert got.metrics.intermediate_tuples <= \
            rows.metrics.intermediate_tuples
    if options["mode"] == "unified":
        # a unified plan may run acyclic parts as binary hash stages,
        # which keep the input's duplicate rows: compare as sets
        if options["materialize"]:
            assert set(labelled(got)) == truth
        else:
            assert (got.count == 0) == (not truth)
        return
    assert got.count == len(truth)
    if options["materialize"]:
        assert got.metrics.intermediate_tuples >= got.count
        rows = labelled(got)
        assert len(rows) == len(truth) and set(rows) == truth
        assert got.attributes == reference.attributes
        assert all(not hasattr(value, "dtype")
                   for row in got.rows[:20] for value in row)


def _case(atoms, rows_by_name, order=None, **options):
    """An explicit seed in the shape :func:`cases` draws."""
    arity = {name: len(attributes) for name, attributes in atoms}
    stored = {name: Relation(name, tuple(f"c{i}" for i in range(arity[name])),
                             rows)
              for name, rows in rows_by_name.items()}
    query = JoinQuery([Atom(name, tuple(attributes), alias=f"A{i}")
                       for i, (name, attributes) in enumerate(atoms)])
    defaults = {"dynamic_seed": True, "materialize": True, "mode": "plain",
                "block": 2}
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
        [("W", "abc")], {"W": [(0, 1, 2), (0, 1, 3), (4, 5, 6), (0, 1, 2)]},
        materialize=False),
    "cross_product": _case(
        [("R", "ab"), ("S", "cd"), ("P", "e")],
        {"R": FAN, "S": HUB + HUB[:2], "P": [(3,), (4,), (3,)]},
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
        {"E": HUB, "R": FAN}, materialize=False, mode="unified"),
}


def examples(seeds):
    def decorate(test):
        for seed in seeds:
            test = example(seed)(test)
        return test
    return decorate


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
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
def test_batch_equals_tuple_equals_brute_force(case):
    check(*case)


@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(cases())
@examples(TAIL[name] for name in ("private_first", "star", "empty_joined"))
def test_sharded_batch_equals_brute_force(case):
    query, tables, order, options = case
    check(query, tables, order, {**options, "mode": "plain"}, parallel=2)


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
        result = run_batch(query, tables, order,
                           {**options, "materialize": materialize},
                           profile=True)
        counters = result.profile.counters
        assert result.count == count
        assert (counters["frontier.tail_levels"],
                counters["frontier.tail_rows"]) == expected


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


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(cases())
@examples(TAIL[name] for name in (
    "private_first", "private_middle", "cross_product", "empty_joined",
    "empty_factor", "star", "triangle"))
@examples(DEEPEN.values())
def test_levels_appear_between_executions(case):
    query, tables, order, options = case
    keywords = {"engine": "batch", "index": "sortedtrie", "order": order,
                "dynamic_seed": options["dynamic_seed"]}
    saved = batch.BLOCK_ROWS
    batch.BLOCK_ROWS = options["block"]
    try:
        runs = {materialize: join(query, tables, materialize=materialize,
                                  profile=True, **keywords)
                for materialize in (False, True)}
        # a string column sends the plan to the tuple engine: not the
        # structure under test
        assume(runs[False].metrics.index == "columnar")
        fresh = {materialize: observed(result, materialize)
                 for materialize, result in runs.items()}
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
    counted = run_batch(query, tables, order, options, profile=True)
    counters = counted.profile.counters
    assert (counters["frontier.levels_built"],
            counters["frontier.levels_total"]) == (built, total)
    spans = [span["args"] for span in counted.profile.spans
             if span["name"] == "build_index"]
    assert sum(args.get("levels", 0) for args in spans) == built
    # ... a materialising run all of them, and it says so per atom
    rows = run_batch(query, tables, order, {**options, "materialize": True},
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


# ----------------------------------------------------------------------
# route differential: acyclic atoms on the batch engine, or on binary
# ----------------------------------------------------------------------
# ``auto`` and ``unified`` run an acyclic query — and a cyclic core's GYO
# ears — on the batch Generic Join when it returns the binary pipeline's
# bag of rows: engine auto/batch, int64 columns, no relation repeating a
# row.  Everything else plans as it did before that rule existed, which
# is what ``engine="tuple"`` still plans for every input.

CORE = [("E", "ab"), ("E", "bc"), ("E", "ca")]
#: (atoms, ears that can ride the core's stage only after another has)
SHAPES = {
    "scan": ([("H", "tx")], {}),
    "star2": ([("H", "tx"), ("S1", "ty")], {}),
    "star4": ([("H", "tx"), ("S1", "ty"), ("S2", "tz"), ("S1", "tw")], {}),
    "chain": ([("H", "ab"), ("S1", "bc"), ("S2", "cd")], {}),
    "contained": ([("W", "abc"), ("S1", "ab")], {}),
    "tail": (CORE + [("S1", "ad")], {}),
    "two_ears": (CORE + [("S1", "ad"), ("S2", "be")], {}),
    "ear_chain": (CORE + [("S1", "ad"), ("S2", "de")], {"A4": "A3"}),
}


@st.composite
def route_cases(draw):
    """``(query, tables, core_aliases, after)`` over small int64 data that
    is duplicate-free, or repeats a row of one acyclic relation, or holds
    strings in one of its columns."""
    atoms, after = SHAPES[draw(st.sampled_from(sorted(SHAPES)))]
    spoil = draw(st.sampled_from(["nothing", "duplicates", "object"]))
    # the cyclic core stays a clean set: a Generic Join stage has always
    # treated it as one, so only acyclic relations are spoiled
    victim = draw(st.sampled_from(sorted({n for n, _ in atoms} - {"E"})))
    tables = {}
    for name, attributes in atoms:
        if name in tables:
            continue
        rows = sorted(draw(st.sets(
            st.tuples(*[st.integers(0, 3)] * len(attributes)),
            min_size=1, max_size=8)))
        if name == victim and spoil == "duplicates":
            rows = rows + rows[:2]
        if name == victim and spoil == "object":
            rows = [row[:-1] + (f"v{row[-1]}",) for row in rows]
        tables[name] = Relation(
            name, tuple(f"c{i}" for i in range(len(attributes))), rows)
    query = JoinQuery([Atom(name, tuple(attributes), alias=f"A{i}")
                       for i, (name, attributes) in enumerate(atoms)])
    core = {f"A{i}" for i in range(3)} if atoms[:3] == CORE else set()
    return query, tables, core, after


def bag(result) -> Counter:
    return Counter(labelled(result))


def admitted(atom, tables) -> bool:
    relation = tables[atom.relation]
    return (relation.duplicate_free()
            and set(relation.dtype_classes()) == {"int64"})


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(route_cases())
def test_route_differential(case):
    query, tables, core, after = case
    bound = bind(query, tables)
    binary = bag(join(query, tables, algorithm="binary", materialize=True))
    ears = [atom for atom in query.atoms if atom.alias not in core]
    riding = {atom.alias for atom in ears if admitted(atom, tables)}
    riding -= {late for late, early in after.items() if early not in riding}
    for algorithm in ("auto", "unified"):
        # what the tuple engine plans is what was planned before the rule
        before = plan(bound, algorithm=algorithm, engine="tuple")
        expected = bag(join(query, tables, algorithm=algorithm,
                            engine="tuple", materialize=True))
        stage = before.root_stage or before
        if stage.algorithm == "binary":
            assert expected == binary
        for engine in ("auto", "batch", "tuple"):
            got = join(query, tables, algorithm=algorithm, engine=engine,
                       materialize=True)
            assert got.count == sum(expected.values())
            assert bag(got) == expected, (algorithm, engine)
            compiled = plan(bound, algorithm=algorithm, engine=engine)
            text = compiled.describe()
            root = compiled.root_stage or compiled
            if engine == "tuple":
                assert text == before.describe()
            elif not core:
                # a single atom is a scan whatever the engine
                everything = len(riding) == len(ears) > 1
                assert (root.algorithm == "generic") == (
                    everything or stage.algorithm == "generic")
                if everything:
                    assert root.engine == "batch"
                    assert "in the binary pipeline's place" in text
                    assert "binary pipeline" in compiled.choice.reason
                elif root.algorithm == "binary" and len(ears) > 1:
                    assert ("duplicate rows" in text
                            or "non-int64 column" in text)
            elif algorithm == "unified":
                generic = root if root.algorithm == "generic" \
                    else root.children[0]
                assert {a.alias for a in generic.query.atoms} == core | riding
                assert (root.algorithm == "generic") == (
                    len(riding) == len(ears))
                if riding:
                    assert "in the binary pipeline's place" in text
                if len(riding) < len(ears):
                    assert {a.alias for a in root.query.atoms} == (
                        {a.alias for a in ears} - riding) | {"stage:core"}
