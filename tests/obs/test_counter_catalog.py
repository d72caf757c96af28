"""The counter and span catalog of ``docs/observability.md``, both ways.

Every counter in its "Counter catalog" and every span in its span table
is emitted by one of six pinned runs — a profiled frontier triangle, a
counting star, a ``Session`` read after a write under a byte budget that
holds one trie, a ``Session`` read after a write its cached tries merge,
a ``parallel=2`` run and a ``join(engine="tuple")`` run — and every
counter, histogram and span those runs emit is in the doc; so is every
argument of a ``build_index`` span, both ways.  A worker's counters
folded into a sharded profile under ``shard.`` are the catalog's own
names.
"""

import re
from pathlib import Path

import pytest

from repro import Relation, Session, join, parse_query
from repro.data import random_edge_relation
from repro.indexes import columnar

DOC = Path(__file__).resolve().parents[2] / "docs" / "observability.md"
TRIANGLE = parse_query("E1=E(a,b), E2=E(b,c), E3=E(c,a)")


def _table(section: str) -> list[str]:
    """First cells of the markdown table under the heading ``section``."""
    body = DOC.read_text().split(section + "\n", 1)[1].split("\n## ", 1)[0]
    return [line.split("|")[1] for line in body.splitlines()
            if line.startswith("| `")]


def _documented_counters() -> set[str]:
    return {name for cell in _table("## Counter catalog")
            for name in re.findall(r"`([a-z_.]+)`", cell)}


def _documented_spans() -> set[str]:
    return {name for cell in _table("## Chrome traces")
            for name in re.findall(r"`([a-z_]+)`", cell)}


def _documented_build_args() -> set[str]:
    """The ``name=`` arguments the span table's ``build_index`` row names."""
    body = DOC.read_text().split("## Chrome traces\n", 1)[1]
    row = next(line for line in body.splitlines()
               if line.startswith("| `build_index` |"))
    return set(re.findall(r"`([a-z_]+)=`", row))


@pytest.fixture(scope="module")
def emitted():
    """``(counters, spans, build_index args)`` over the six pinned runs."""
    edges = random_edge_relation(40, 200, seed=3)
    tables = {"E1": edges, "E2": edges, "E3": edges}
    fan = Relation("F", ("t", "x"), [(i % 5, i) for i in range(30)])
    hub = Relation("A", ("t", "p", "q"), [(i % 5, i, i + 1) for i in range(20)])
    profiles = [
        join(TRIANGLE, tables, profile=True).profile,
        join(parse_query("F(t,x), A(t,p,q)"), {"F": fan, "A": hub},
             profile=True).profile,
        join(TRIANGLE, tables, parallel=2, profile=True).profile,
        join(TRIANGLE, tables, engine="tuple", profile=True).profile,
    ]
    with Session(tables) as sizing:
        sizing.execute(TRIANGLE)
        one_trie = max(trie.memory_usage()
                       for trie in sizing.prepare(TRIANGLE).structures.values())
    with Session(tables, cache_bytes=one_trie + 1) as session:
        session.execute(TRIANGLE)
        session.execute(TRIANGLE)
        edges.extend([(41, 42)])
        profiles.append(session.execute(TRIANGLE, profile=True).profile)
        session_counters = set(session.metrics.counters)
    # a merge: E is far smaller than a merge pays at, so lift the floor
    with Session(tables) as merging, pytest.MonkeyPatch.context() as patch:
        patch.setattr(columnar, "_MERGED_ROWS", 0)
        merging.execute(TRIANGLE)
        edges.extend([(0, 1)])     # inside both columns' ranges
        profiles.append(merging.execute(TRIANGLE, profile=True).profile)
        session_counters |= set(merging.metrics.counters)

    counters, spans, build_args = set(session_counters), set(), set()
    for profile in profiles:
        payload = profile.as_dict()
        counters |= set(payload["counters"]) | set(payload["histograms"])
        for shard in payload["sharding"]["shards"] if payload["sharding"] else ():
            if shard is not None:
                spans |= {span["name"] for span in shard["spans"]}
        spans |= {span["name"] for span in payload["spans"]}
        build_args.update(*(span["args"] for span in payload["spans"]
                            if span["name"] == "build_index"))
    return ({name.removeprefix("shard.") for name in counters}, spans,
            build_args)


def test_the_doc_names_counters_and_spans():
    assert len(_documented_counters()) > 20
    assert {"probe", "shard_fanout"} <= _documented_spans()


def test_every_catalog_counter_is_emitted(emitted):
    counters, _, _ = emitted
    assert _documented_counters() - counters == set()


def test_every_emitted_counter_is_in_the_catalog(emitted):
    counters, _, _ = emitted
    assert counters - _documented_counters() == set()


def test_every_documented_span_is_emitted(emitted):
    _, spans, _ = emitted
    assert _documented_spans() - spans == set()


def test_every_emitted_span_is_documented(emitted):
    _, spans, _ = emitted
    assert spans - _documented_spans() == set()


def test_build_index_arguments_are_documented_both_ways(emitted):
    _, _, build_args = emitted
    assert {"tuples", "levels", "delta"} <= _documented_build_args()
    assert build_args == _documented_build_args()
