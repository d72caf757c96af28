"""Columnar-trie unit suite — the structure the batch Generic Join reads.

(The file keeps the name of the BatchCursor protocol suite it replaces:
the questions are the same — candidates, vectorized probes, random
access order, advisory counts — asked of the one structure that now
answers them.)

Two references hold :class:`~repro.indexes.columnar.ColumnarTrie` to
account: a ``dict``-of-sets model of the rows, and the exact prefix
interface of the registry indexes the *tuple* engine reads over the same
rows, so the two engines' read paths are compared structure to
structure.  The overflow guard is exercised by shrinking
``PACK_LIMIT``: a trie forced onto rank codes and ``np.lexsort`` must
hold the same arrays and answer every probe as the packed one does.

A trie sorts when it is made and builds a level on first descent
(``at_depth``); ``build_trie`` asks for all of them, the level-by-level
tests at the end of the file ask for one at a time.
"""

import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.engine import Session
from repro.errors import SchemaError
from repro.indexes import ColumnarTrie, columnar, make_index
from repro.indexes.base import value_array
from repro.storage.relation import Relation

#: tuple-engine structures the trie is compared against, all arity 3
CURSOR_INDEXES = ("sonic", "sortedtrie", "hashtrie", "btree")

INT64 = np.iinfo(np.int64)


def columns_of(rows, arity: int) -> tuple:
    return tuple(np.array([row[i] for row in rows], dtype=np.int64)
                 for i in range(arity))


def build_trie(rows, arity: int = 3) -> ColumnarTrie:
    return ColumnarTrie(columns_of(rows, arity)).at_depth(arity)


def resident_bytes(trie: ColumnarTrie) -> int:
    """What ``memory_usage()`` must report: whatever is left of the sort
    buffer, the weights of repeated rows, and the arrays of every
    materialised level, an array two levels share (the last ``indptr``
    is the ``starts`` above it) once."""
    buffer = [trie._key] if trie._sorted is None else trie._sorted
    aids = [array for aid in trie._aids if aid for array in aid]
    arrays = {id(array): array.nbytes
              for level in (buffer, [trie.weights], trie.values,
                            trie.indptr, trie.keys, trie.codes, trie.starts,
                            aids)
              for array in level if array is not None}
    return sum(arrays.values())


def aid_kinds(trie: ColumnarTrie) -> list:
    """Per level, the probe aid it holds: ``"slots"``, ``"signatures"``,
    ``"none"`` (decided against) or None (undecided)."""
    return [None if aid is None else "none" if not aid
            else "slots" if aid[0] is not None else "signatures"
            for aid in trie._aids]


def with_aids(trie: ColumnarTrie) -> ColumnarTrie:
    """``trie`` with every built level's aid decided: each level probed
    as many rows as it has nodes, below parent 0."""
    for depth in range(trie.built_depth):
        nodes = trie.keys[depth].size
        parents = None if depth == 0 else np.zeros(nodes, dtype=np.int64)
        trie.probe(depth, parents, np.zeros(nodes, dtype=np.int64))
    return trie


def answer(trie: ColumnarTrie, depth: int, parents, values) -> tuple:
    """``probe()``'s answer: the found mask and the found rows' node ids."""
    found, ids = trie.probe(depth, parents, values)
    return found.tolist(), ids[found].tolist()


def build_index(name: str, rows):
    index = make_index(name, 3)
    for row in rows:
        index.insert(row)
    return index


def random_rows(count: int, domain: int, seed: int) -> list[tuple]:
    rng = random.Random(seed)
    return sorted({(rng.randrange(domain), rng.randrange(domain),
                    rng.randrange(domain)) for _ in range(count)})


@pytest.fixture(params=CURSOR_INDEXES)
def indexed(request):
    rows = random_rows(200, 8, seed=3)
    return build_index(request.param, rows), build_trie(rows), rows


def expected_children(rows, prefix):
    depth = len(prefix)
    return sorted({row[depth] for row in rows if row[:depth] == prefix})


# -- the trie read one prefix at a time, through its vectorized calls ------
def descend(trie: ColumnarTrie, prefix: tuple):
    """Node id ``prefix`` leads to; None at the root; -1 when absent."""
    node = None
    for depth, value in enumerate(prefix):
        parents = None if node is None else np.array([node])
        found, ids = trie.probe(depth, parents, np.array([value]))
        if not found[0]:
            return -1
        node = int(ids[0])
    return node


def candidates(trie: ColumnarTrie, prefix: tuple) -> list:
    node = descend(trie, prefix)
    if node == -1:
        return []
    parents = None if node is None else np.array([node])
    start, end = trie.child_ranges(len(prefix), parents)
    return trie.values[len(prefix)][int(start[0]):int(end[0])].tolist()


def probe_many(trie: ColumnarTrie, prefix: tuple, values) -> list:
    node = descend(trie, prefix)
    if node == -1:
        return [False] * len(values)
    values = np.asarray(values, dtype=np.int64)
    parents = None if node is None else np.full(len(values), node)
    return trie.probe(len(prefix), parents, values)[0].tolist()


class TestCandidates:
    def test_root_candidates_cover_first_components(self, indexed):
        index, trie, rows = indexed
        got = candidates(trie, ())
        assert got == expected_children(rows, ())
        # inner depths of an index may add false positives (Sonic §3.3),
        # never lose a value
        assert set(index.iter_next_values(())) >= set(got)

    def test_final_depth_exact(self, indexed):
        index, trie, rows = indexed
        for prefix in sorted({row[:2] for row in rows}):
            got = candidates(trie, prefix)
            assert got == expected_children(rows, prefix), prefix
            assert got == sorted(index.iter_next_values(prefix)), prefix

    def test_missing_prefix_empty(self, indexed):
        index, trie, rows = indexed
        assert candidates(trie, (999, 999)) == []
        assert list(index.iter_next_values((999, 999))) == []

    def test_candidates_sorted_and_distinct(self, indexed):
        index, trie, rows = indexed
        for prefix in [(), (rows[0][0],), rows[0][:2]]:
            values = candidates(trie, prefix)
            assert values == sorted(set(values)), prefix


class TestProbeMany:
    def test_agrees_with_has_prefix_at_final_depth(self, indexed):
        index, trie, rows = indexed
        for prefix in sorted({row[:2] for row in rows})[:20]:
            mask = probe_many(trie, prefix, range(10))
            expected = [index.has_prefix(prefix + (v,)) for v in range(10)]
            assert mask == expected, prefix

    def test_empty_values_vector(self, indexed):
        index, trie, rows = indexed
        empty = np.empty(0, dtype=np.int64)
        found, ids = trie.probe(0, None, empty)
        assert found.size == 0 and ids.size == 0
        found, ids = trie.probe(1, empty, empty)
        assert found.size == 0 and ids.size == 0


class TestSync:
    def test_out_of_order_prefix_sequence(self, indexed):
        """Random prefix jumps (backtracks, sibling switches, re-visits)
        must all answer exactly — the trie is immutable and stateless, so
        access order cannot matter, at any depth."""
        index, trie, rows = indexed
        rng = random.Random(17)
        prefixes = sorted({row[:2] for row in rows} | {row[:1] for row in rows})
        for _ in range(200):
            prefix = prefixes[rng.randrange(len(prefixes))]
            assert candidates(trie, prefix) == expected_children(rows, prefix)

    def test_count_is_positive_on_stored_prefixes(self, indexed):
        index, trie, rows = indexed
        for prefix in sorted({row[:1] for row in rows})[:5]:
            start, end = trie.child_ranges(1, np.array([descend(trie, prefix)]))
            # exact child count where the index's count is advisory
            assert int(end[0] - start[0]) == len(expected_children(rows, prefix))
            assert index.count_prefix(prefix) > 0
        assert descend(trie, (999,)) == -1
        assert index.count_prefix((999,)) == 0


def searched_and_aided(rows, arity: int, kinds: list):
    """The trie over ``rows`` before its aids exist (a probe is a plain
    search), then one whose levels hold the aids ``kinds``."""
    yield build_trie(rows, arity)
    trie = with_aids(build_trie(rows, arity))
    assert aid_kinds(trie) == kinds
    yield trie


class TestProbe:
    """Every case answers alike with and without its trie's aids."""

    def test_out_of_range_values_do_not_alias_another_parent(self):
        # parent 0 holds {0}, parent 1 holds {0, 1}: span 2.  Asking
        # parent 0 for value 2 packs to 0*2 + 2 == 1*2 + 0 — parent 1's
        # first key.  Only the range check tells them apart.
        for trie in searched_and_aided([(10, 0), (11, 0), (11, 1)], 2,
                                       ["slots", "slots"]):
            assert trie.codes[1] is None and trie.spans[1] == 2
            parents = np.array([0, 0, 0, 1, 1])
            values = np.array([2, -2, 0, 0, -1])
            found, ids = trie.probe(1, parents, values)
            assert found.tolist() == [False, False, True, True, False]
            assert ids[found].tolist() == [0, 1]

    def test_offsets_that_wrap_int64_still_miss(self):
        # value - lo wraps to a small positive number here
        for trie in searched_and_aided([(INT64.max - 1,), (INT64.max,)], 1,
                                       ["slots"]):
            found, _ = trie.probe(
                0, None, np.array([INT64.min, INT64.min + 1, 0]))
            assert not found.any()
        # ... and below a parent, on a sparse packed level (signatures):
        # neither ``INT64.min - 5`` nor ``INT64.max`` is any parent's key
        for trie in searched_and_aided([(0, 5), (0, 2 ** 40), (1, 7)], 2,
                                       ["slots", "signatures"]):
            assert trie.codes[1] is None
            # as many times over as takes the signature test
            times = -(-columnar._SIGNED_ROWS // 7)
            parents = np.tile([0, 0, 0, 0, 1, 1, 1], times)
            values = np.tile([INT64.min, INT64.max, 2 ** 40, 5, 5,
                              INT64.min, 7], times)
            assert answer(trie, 1, parents, values) == (
                [False, False, True, True, False, False, True] * times,
                [1, 0, 2] * times)

    def test_children_strided_by_64_keep_distinct_signature_bits(self):
        # ``value & 63`` would put every child of a parent on one bit;
        # the multiplicative hash spreads them, and a missing multiple
        # of 64 between two present ones is still a miss
        rows = [(parent, 64 * child) for parent in range(4)
                for child in range(0, 400, 3 + parent)]
        wanted = [(parent, 64 * child) for parent in range(4)
                  for child in range(-2, 402)]
        for trie in searched_and_aided(rows, 2, ["slots", "signatures"]):
            found, ids = trie.probe(1, np.array([p for p, _ in wanted]),
                                    np.array([v for _, v in wanted]))
            assert [row for row, hit in zip(wanted, found) if hit] == rows
            assert ids[found].tolist() == list(range(len(rows)))
        assert all(bin(int(bits)).count("1") > 8 for bits in trie._aids[1][1])

    def test_a_sparse_root_keeps_its_search(self):
        for trie in searched_and_aided([(0,), (1000,), (-1000,)], 1,
                                       ["none"]):
            found, ids = trie.probe(
                0, None, np.array([1000, 999, -1000, 0, 1]))
            assert found.tolist() == [True, False, True, True, False]
            assert ids[found].tolist() == [2, 0, 1]

    def test_object_columns_are_refused(self):
        column = np.empty(2, dtype=object)
        column[:] = ["a", "b"]
        with pytest.raises(SchemaError, match="int64"):
            ColumnarTrie((column,))


# -- model-based properties ------------------------------------------------
_values = st.one_of(
    st.integers(-4, 4),
    st.sampled_from([INT64.min, INT64.min + 1, -2 ** 62, 2 ** 62,
                     INT64.max - 1, INT64.max]),
    st.integers(-2 ** 40, 2 ** 40))


@st.composite
def row_sets(draw):
    arity = draw(st.integers(1, 4))
    rows = draw(st.lists(st.tuples(*[_values] * arity), max_size=30))
    return arity, rows


def model_of(rows, arity: int) -> list:
    """Per level: ``prefix -> set of next values`` — the dict-of-sets trie."""
    levels = [{} for _ in range(arity)]
    levels[0][()] = set()          # the root is there even with no rows
    for row in rows:
        for depth in range(arity):
            levels[depth].setdefault(row[:depth], set()).add(row[depth])
    return levels


def assert_matches_model(trie: ColumnarTrie, rows, arity: int) -> None:
    model = model_of(rows, arity)
    assert len(trie) == len(set(rows))
    for depth in range(arity):
        prefixes = sorted(model[depth])
        # node ids of level depth-1 are the ranks of its sorted prefixes
        assert len(trie.indptr[depth]) == len(prefixes) + 1
        for node, prefix in enumerate(prefixes):
            low, high = trie.indptr[depth][node:node + 2]
            assert trie.values[depth][low:high].tolist() == \
                sorted(model[depth][prefix])
            if prefix:
                assert descend(trie, prefix) == node
        assert int(trie.indptr[depth][-1]) == len(trie.values[depth])
    # every level has landed: the sort buffer is gone, and the row
    # starts are counted beside the four arrays a probe reads
    assert trie._key is None and trie._sorted is None
    assert trie.memory_usage() == resident_bytes(trie)


@settings(max_examples=150, deadline=None)
@given(row_sets())
@example((2, [(INT64.min, 5), (INT64.max, -3), (0, 0), (0, INT64.max)]))
@example((3, [(0, 0, 0), (0, 0, 0), (0, 1, 0)]))
@example((1, []))
def test_level_arrays_match_a_dict_of_sets_model(case):
    arity, rows = case
    assert_matches_model(build_trie(rows, arity), rows, arity)


def strided(rows, stride: int) -> list:
    """``rows`` with every moderate value times ``stride``: children 64
    apart share their low six bits."""
    return [tuple(value * stride if abs(value) <= 2 ** 40 else value
                  for value in row) for row in rows]


@settings(max_examples=100, deadline=None)
@given(row_sets(), st.sampled_from([1, 2, 7, 64]), st.sampled_from([1, 64]))
def test_packed_and_rank_coded_levels_answer_alike(case, limit, stride):
    """... and answer alike again once the first probe of each level
    (more rows than the level has nodes) has decided its aid."""
    arity, rows = case
    rows = strided(rows, stride)
    packed = build_trie(rows, arity)
    saved = columnar.PACK_LIMIT
    columnar.PACK_LIMIT = limit     # forces np.lexsort and rank codes
    try:
        coded = build_trie(rows, arity)
    finally:
        columnar.PACK_LIMIT = saved
    if rows and limit == 1:
        assert all(codes is not None for codes in coded.codes)
    assert_matches_model(coded, rows, arity)
    rng = random.Random(len(rows))
    pool = sorted({value for row in rows for value in row}
                  | {0, 1, -1, INT64.min, INT64.max})
    for depth in range(arity):
        assert coded.values[depth].tolist() == packed.values[depth].tolist()
        assert coded.indptr[depth].tolist() == packed.indptr[depth].tolist()
        parent_count = len(packed.indptr[depth]) - 1
        if parent_count == 0:
            continue
        # a block big enough for the signature test, and a serve-sized one
        size = columnar._SIGNED_ROWS
        values = np.array([rng.choice(pool) for _ in range(size)],
                          dtype=np.int64)
        parents = (None if depth == 0 else
                   np.array([rng.randrange(parent_count)
                             for _ in range(size)]))
        want = answer(packed, depth, parents, values)
        for trie in (coded, packed, coded):
            assert answer(trie, depth, parents, values) == want
            few = None if parents is None else parents[:40]
            assert answer(trie, depth, few, values[:40]) == \
                answer(packed, depth, few, values[:40])
        if rows:
            assert None not in aid_kinds(packed)[:depth + 1]
            assert None not in aid_kinds(coded)[:depth + 1]


@settings(max_examples=60, deadline=None)
@given(row_sets())
def test_truncated_and_full_tries_number_shared_levels_identically(case):
    arity, rows = case
    full = build_trie(rows, arity)
    columns = columns_of(rows, arity)
    for depth in range(1, arity + 1):
        truncated = ColumnarTrie(columns[:depth]).at_depth(depth)
        assert truncated.arity == depth
        for level in range(depth):
            assert truncated.values[level].tolist() == full.values[level].tolist()
            assert truncated.indptr[level].tolist() == full.indptr[level].tolist()
            # same packing decision, so the same keys: a frontier holding
            # node ids from the truncated trie probes the full one as is
            assert truncated.keys[level].tolist() == full.keys[level].tolist()


@settings(max_examples=150, deadline=None)
@given(row_sets(), st.sampled_from([1, 64, columnar.PACK_LIMIT]))
@example((2, [(INT64.min, 5), (INT64.min, 6), (INT64.max, -3), (0, 0),
              (0, INT64.max), (0, INT64.min)]), columnar.PACK_LIMIT)
@example((4, [(0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 0),
              (1, 0, 0, 0), (0, 0, 0, 0)]), 1)
@example((1, [(3,), (3,), (INT64.max,)]), 1)
def test_tuple_counts_match_a_counter_over_row_prefixes(case, limit):
    arity, rows = case
    saved = columnar.PACK_LIMIT
    columnar.PACK_LIMIT = limit     # 1: every level on dense-rank codes
    try:
        trie = build_trie(rows, arity)
    finally:
        columnar.PACK_LIMIT = saved
    if rows and limit == 1:
        assert all(codes is not None for codes in trie.codes)
    resident = trie.memory_usage()
    rng = random.Random(len(rows))
    for depth in range(arity):
        # a bag: a repeated row is counted as often as it was built from
        below = Counter(row[:depth + 1] for row in rows)
        prefixes = sorted(below)        # a node's id is its prefix's rank
        # any order, repeats included: a frontier column, not a scan
        nodes = [rng.randrange(len(prefixes))
                 for _ in range(2 * len(prefixes))]
        counts = trie.tuple_counts(depth, np.array(nodes, dtype=np.int64))
        assert counts.dtype == np.int64
        assert counts.tolist() == [below[prefixes[node]] for node in nodes]
        assert trie.tuple_counts(
            depth, np.empty(0, dtype=np.int64)).size == 0
    # read off the stored row starts: a count keeps nothing of its own
    assert trie.memory_usage() == resident == resident_bytes(trie)
    # (a probe may: it decides aids)
    for depth in range(arity):
        prefixes = sorted(Counter(row[:depth + 1] for row in rows))
        for node in range(min(5, len(prefixes))):
            assert descend(trie, prefixes[node]) == node
    assert trie.memory_usage() == resident_bytes(trie)


# -- levels on first descent -------------------------------------------------
def level_ids(trie: ColumnarTrie) -> list:
    return [[id(array) for array in level]
            for level in (trie.values, trie.indptr, trie.keys, trie.codes,
                          trie.starts)]


@settings(max_examples=100, deadline=None)
@given(row_sets(), st.sampled_from([1, 64, columnar.PACK_LIMIT]))
@example((3, [(INT64.min, 5, 1), (INT64.min, 6, 1), (INT64.max, -3, 0),
              (0, 0, 0), (0, INT64.max, 2), (0, INT64.min, 2)]),
         columnar.PACK_LIMIT)
@example((4, [(0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 0),
              (1, 0, 0, 0), (0, 0, 0, 0)]), 1)
@example((1, [(3,), (3,), (INT64.max,)]), 64)
def test_levels_land_one_at_a_time_and_are_never_rewritten(case, limit):
    """A fresh trie holds its sort buffer and no level; ``at_depth(d)``
    appends exactly the missing ones, each equal to the all-at-once
    build's, without touching those before; ``tuple_counts`` at the
    deepest built level already answers from the row starts; the buffer
    goes when the last level lands; bytes follow every step."""
    arity, rows = case
    columns = columns_of(rows, arity)
    saved = columnar.PACK_LIMIT
    columnar.PACK_LIMIT = limit
    try:
        whole = ColumnarTrie(columns).at_depth(arity)
        trie = ColumnarTrie(columns)
        assert len(trie) == len(set(rows))
        if rows:
            assert trie.built_depth == 0 and trie.values == []
            buffered = 8 * len(trie) * (
                1 if trie._sorted is None else arity)
            if trie.weights is not None:
                buffered += trie.weights.nbytes
            assert trie.memory_usage() == buffered == resident_bytes(trie)
        for depth in range(arity):
            before = level_ids(trie)
            assert trie.at_depth(depth + 1) is trie
            assert trie.built_depth == (depth + 1 if rows else arity)
            assert [ids[:len(before[0])] for ids in level_ids(trie)] \
                == before
            for mine, theirs in ((trie.values, whole.values),
                                 (trie.indptr, whole.indptr),
                                 (trie.keys, whole.keys)):
                assert mine[depth].tolist() == theirs[depth].tolist()
            assert trie.memory_usage() == resident_bytes(trie)
            # counted from this level's starts: nothing below is built
            below = Counter(row[:depth + 1] for row in rows)
            nodes = np.arange(len(below), dtype=np.int64)[::-1]
            assert trie.tuple_counts(depth, nodes).tolist() == \
                [below[prefix] for prefix in sorted(below)][::-1]
            # ... and a trie over the first columns only counts the rows
            # under each prefix of that length, under the same node ids
            short = ColumnarTrie(columns[:depth + 1]).at_depth(depth + 1)
            for level in range(depth + 1):
                prefixes = Counter(row[:level + 1] for row in rows)
                ids = np.arange(len(prefixes), dtype=np.int64)
                assert short.tuple_counts(level, ids).tolist() == \
                    [prefixes[prefix] for prefix in sorted(prefixes)]
        assert trie._key is None and trie._sorted is None
        assert trie.memory_usage() == whole.memory_usage()
        # asking again, or for less, builds nothing
        final = level_ids(trie)
        trie.at_depth(1), trie.at_depth(arity)
        assert level_ids(trie) == final
    finally:
        columnar.PACK_LIMIT = saved


def test_an_aid_waits_until_a_level_has_answered_its_node_count():
    """The ski-rental rule: no aid while a level's probed rows are fewer
    than its nodes; the probe that reaches the count decides it, and the
    cache hook hears of the bytes.  A read that probes less builds none."""
    rows = [(parent, child) for parent in range(50)
            for child in range(0, 300, 7)]
    trie = build_trie(rows, arity=2)
    heard = []
    trie.on_deepen = heard.append
    for depth, kind in enumerate(("slots", "signatures")):
        nodes = trie.keys[depth].size
        for low in range(0, nodes - 1, 97):
            size = min(97, nodes - 1 - low)
            parents = None if depth == 0 else np.full(size, 3)
            trie.probe(depth, parents, np.arange(size, dtype=np.int64))
            assert aid_kinds(trie)[depth] is None
        resident = trie.memory_usage()
        parents = None if depth == 0 else np.array([3])
        trie.probe(depth, parents, np.array([7]))
        assert aid_kinds(trie)[depth] == kind
        assert heard == [trie] * (depth + 1)
        assert trie.memory_usage() == resident_bytes(trie) > resident
    # a serve-sized read (a hot-edge triangle over 30k edges) probes too
    # few rows to pay for one; the whole triangle over them builds them
    rng = np.random.default_rng(13)
    edges = sorted(set(map(tuple, rng.integers(0, 3000, (30000, 2)).tolist())))
    tables = {"E": Relation("E", ("src", "dst"), edges),
              "H": Relation("H", ("src", "dst"), edges[::300])}
    session = Session(tables)
    options = {"algorithm": "generic", "engine": "batch", "profile": True}
    hot = session.execute("H(a,b), E1=E(b,c), E2=E(c,a)", **options)
    assert hot.profile.counters["frontier.probe_aids"] == 0
    cached = [entry.value for entry in session.cache._entries.values()]
    assert cached and all(aid is None for t in cached for aid in t._aids)
    whole = session.execute("E1=E(a,b), E2=E(b,c), E3=E(c,a)", **options)
    assert whole.profile.counters["frontier.probe_aids"] > 0
    cached = [entry.value for entry in session.cache._entries.values()]
    assert session.cache_stats().bytes == sum(t.memory_usage() for t in cached)


def test_extreme_spans_fall_back_to_rank_codes():
    rows = [(INT64.min, 1), (INT64.max, 2), (0, INT64.min), (0, INT64.max)]
    trie = build_trie(rows, arity=2)
    assert trie.codes[0] is not None and trie.codes[1] is not None
    assert trie.spans == [3, 4]
    assert_matches_model(trie, rows, 2)
    moderate = build_trie([(-2 ** 62, 0), (2 ** 62, 1)], arity=2)
    assert moderate.codes[0] is not None     # hi - lo = 2**63: does not fit
    assert moderate.codes[1] is None


class TestArrayHelpers:
    def test_membership_mask_basic(self):
        # the mask a probe returns: which values are children, and where
        trie = build_trie([(2,), (4,), (6,), (8,)], arity=1)
        found, ids = trie.probe(0, None, np.array([1, 2, 5, 8, 9]))
        assert found.tolist() == [False, True, False, True, False]
        assert ids[found].tolist() == [0, 3]

    def test_membership_mask_empty_children(self):
        trie = build_trie([], arity=2)
        assert len(trie) == 0
        assert trie.probe(0, None, np.array([1, 2]))[0].tolist() == [False, False]
        start, end = trie.child_ranges(0, None)
        assert (end - start).tolist() == [0]

    def test_value_array_strings(self):
        array = value_array(["b", "a"])
        assert array.dtype.kind in ("U", "O")
        assert array.tolist() == ["b", "a"]

    def test_value_array_mixed_falls_back_to_object(self):
        array = value_array([1, "x"])
        assert array.dtype == object
        assert array.tolist() == [1, "x"]
