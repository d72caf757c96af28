"""A warm read enters none of numpy's Python-level wrappers from the frontier.

A serve read carries tens of frontier rows, so what one level costs is
mostly the calls it makes, not the rows they touch.  numpy's module-level
functions (``np.argmin`` on a list, ``np.flatnonzero``, ``np.cumsum``,
``np.repeat``, ``np.broadcast_to``) and the reducing methods
``ndarray.all`` / ``.max`` / ``.sum`` run Python code inside numpy
before they reach C; the array methods ``nonzero`` / ``repeat`` /
``cumsum`` / ``searchsorted`` / ``take`` and the ufuncs' ``reduce`` do
not.  Each test wraps one warm :meth:`~repro.Session.execute` in a
:func:`sys.setprofile` hook and lists every Python frame under numpy
whose caller is :mod:`repro.joins.batch` or
:mod:`repro.indexes.columnar`: the list must be empty.  Nothing is timed.

The reads cover the frontier's paths: a hot triangle whose dynamic seed
splits a block between two participants, a counting star over repeated
rows (weights, then the tail's sum of products), a materialising bag
read over a coded column, and a probe of at least ``_SIGNED_ROWS`` rows
through a signature aid.

A read after a write pays for the rows written: the same hook lists the
numpy frames entered from :mod:`repro.indexes.columnar` while
:func:`~repro.indexes.columnar.mergeable` and the merging constructor
run, over writes that take each of the merge's paths.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path
from unittest import mock

import numpy as np

from repro import Relation, Session, join
from repro.indexes import columnar
from repro.indexes.columnar import _SIGNED_ROWS, ColumnarTrie
from repro.joins import batch

NUMPY = str(Path(np.__file__).parent)
FRONTIER = {batch.__file__, columnar.__file__}


#: the write path: what a read after a write runs of the trie module
MERGE = {columnar.mergeable.__code__, columnar.ColumnarTrie.__init__.__code__}


def traced(call, within: "set | None" = None):
    """``call()``'s result; the numpy frames the frontier entered (only
    inside a call of a code object in ``within``, when given); the
    ``(rows, signed)`` of each probe it made — ``signed``: the level had
    a signature aid."""
    entered, probes, inside = [], [], [within is None]

    def hook(frame, event, arg):
        code = frame.f_code
        if code in (within or ()) and event in ("call", "return"):
            inside[0] = event == "call"
        if event != "call":
            return
        caller = frame.f_back
        if (code.co_filename.startswith(NUMPY) and caller is not None
                and caller.f_code.co_filename in FRONTIER and inside[0]):
            entered.append(f"{code.co_name} from {caller.f_code.co_name} "
                           f"line {caller.f_lineno}")
        elif code.co_name == "probe" and code.co_filename == columnar.__file__:
            local = frame.f_locals
            aid = local["self"]._aids[local["depth"]]
            probes.append((local["values"].size,
                           bool(aid) and aid[1] is not None))

    sys.setprofile(hook)
    try:
        result = call()
    finally:
        sys.setprofile(None)
    return result, entered, probes


def warm_read(session: Session, query: str, materialize: bool = False,
              warm: int = 20):
    """One read after ``warm`` identical ones — the levels it descends
    into and the probe aids it earns are in place — traced.  A read that
    still built an aid would be charged for a one-off; it must not."""
    for _ in range(warm):
        expected = session.execute(query, materialize=materialize).count
    tries = list(session.prepare(query).structures.values())
    aids = [list(trie._aids) for trie in tries]
    result, entered, probes = traced(
        lambda: session.execute(query, materialize=materialize))
    assert [list(trie._aids) for trie in tries] == aids
    assert result.count == expected
    return result, entered, probes


def edges(nodes: int, count: int, seed: int) -> list:
    rng = random.Random(seed)
    rows = set()
    while len(rows) < count:
        a, b = rng.randrange(nodes), rng.randrange(nodes)
        if a != b:
            rows.add((a, b))
    return sorted(rows)


HOT_TRIANGLE = "H(a,b), E1=E(b,c), E2=E(c,a)"


def test_hot_triangle_with_a_split_seed():
    rows = edges(60, 400, seed=3)
    source = {"E": Relation("E", ("src", "dst"), rows),
              "H": Relation("H", ("src", "dst"), rows[::7])}
    session = Session(source)
    profiled = session.execute(HOT_TRIANGLE, profile=True)
    # some level's rows are seeded by two different participants, so a
    # block is split into strict subsets (``chosen``)
    assert any(sum(1 for n in level.seed_counts.values() if n) > 1
               for level in profiled.profile.levels)
    result, entered, _ = warm_read(session, HOT_TRIANGLE)
    assert result.count == profiled.count > 0
    assert entered == []


def test_counting_star_over_repeated_rows():
    # H and G repeat rows: where they bind ``t`` beside A and B their
    # multiplicities are weighed in, one times the other, and the tail
    # (``p``, ``q``) is counted from subtree sizes times that weight
    source = {
        "H": Relation("H", ("t",), [(t,) for t in range(12)] * 2 + [(3,)]),
        "G": Relation("G", ("t",), [(t,) for t in range(0, 12, 3)] * 3),
        "A": Relation("A", ("t", "p"), [(t, p) for t in range(12)
                                        for p in range(t % 4 + 1)]),
        "B": Relation("B", ("t", "q"), [(t, q) for t in range(12)
                                        for q in range(t % 3 + 1)]),
    }
    query = "H(t), G(t), A(t,p), B(t,q)"
    session = Session(source)
    profiled = session.execute(query, profile=True)
    assert profiled.profile.counters["frontier.tail_levels"] == 2
    expected = sum((3 if t == 3 else 2) * 3 * (t % 4 + 1) * (t % 3 + 1)
                   for t in range(0, 12, 3))
    result, entered, _ = warm_read(session, query)
    assert result.count == expected
    assert entered == []


def test_materialising_bag_read_over_a_coded_column():
    names = [f"k{i}" for i in range(8)]
    source = {
        "R": Relation("R", ("a", "b"),
                      [(a, names[(a * 3) % 8]) for a in range(20)] * 2),
        "S": Relation("S", ("b", "c"),
                      [(name, c) for name in names[::2] for c in range(3)]),
    }
    query = "R(a,b), S(b,c)"
    session = Session(source)
    result, entered, _ = warm_read(session, query, materialize=True)
    expected = sorted(2 * [(a, names[(a * 3) % 8], c) for a in range(20)
                           for c in range(3) if (a * 3) % 8 % 2 == 0])
    position = [result.attributes.index(name) for name in "abc"]
    assert sorted(tuple(row[i] for i in position)
                  for row in result.rows) == expected
    assert entered == []


def test_probe_through_signatures():
    # a sparse edge set over a wide id space: below the root the key
    # space is far more than 4x the nodes, so a level earns signatures
    rng = random.Random(7)
    ids = rng.sample(range(1_000_000), 400)
    rows = sorted({(ids[a], ids[b]) for a, b in edges(400, 6000, seed=5)})
    source = {"E": Relation("E", ("src", "dst"), rows)}
    query = "E1=E(a,b), E2=E(b,c), E3=E(c,a)"
    session = Session(source)
    _, entered, probes = warm_read(session, query)
    assert any(signed and size >= _SIGNED_ROWS for size, signed in probes)
    assert entered == []


def test_a_stale_read_merges_through_no_wrapper():
    # E and F clear the merge's size floor and leave source 7 out; a
    # triangle over E builds both its levels, a counting star builds one
    # level of F: a sort buffer is left
    rows = [row for row in edges(1200, 9000, seed=11) if row[0] != 7]
    assert len(rows) >= columnar._MERGED_ROWS
    source = {"E": Relation("E", ("src", "dst"), rows),
              "F": Relation("F", ("src", "dst"), rows),
              "V": Relation("V", ("v",), [(v,) for v in range(0, 1200, 3)])}
    triangle = "E1=E(a,b), E2=E(b,c), E3=E(c,a)"
    star = "F(a,b), V(a)"
    session = Session(source)
    session.execute(triangle)
    session.execute(star)
    assert [trie.built_depth for trie in
            session.prepare(star).structures.values()] == [1, 1]
    for name in "EF":
        # a new row, a repeated one, and one that opens a level-0 node
        source[name].extend([(3, 5), rows[10], (7, 2)])
    merge = ColumnarTrie._merge
    for query in (triangle, star):
        with mock.patch.object(ColumnarTrie, "_merge", autospec=True,
                               side_effect=merge) as spy:
            result, entered, _ = traced(lambda: session.execute(query),
                                        within=MERGE)
        assert result.count == join(query, source).count
        assert spy.called
        assert entered == []
