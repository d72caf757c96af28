"""The default contract: with no ``engine=`` the system runs the frontier
engine, whatever the columns hold and whether a relation repeats a row.

``join``, ``Session.prepare``, ``Session.execute`` and ``plan`` default to
``engine="auto"``, which every Generic Join plan — and, under
``algorithm="auto"``, every acyclic query, a single atom included —
resolves to the batch engine, answering the bag.  The paper's
configuration, Generic Join over a Sonic index, is ``engine="tuple"`` by
name, through a cold ``join()``: a session refuses it.  The serve-path
audit underneath holds a default ``Session`` to the one structure kind
it is left with: columnar tries, rebuilt after a write.
"""

from __future__ import annotations

import inspect
from itertools import product

import pytest

from repro import Relation, Session, join, parse_query
from repro.engine import bind, plan
from repro.errors import ConfigurationError

TRIANGLE = "E1=E(a,b), E2=E(b,c), E3=E(c,a)"
STAR = "F(t,x), A(t,p)"
ATOM = "A(t,p)"

EDGES = [(a, (a * 3 + k) % 7) for a in range(7) for k in (1, 2, 4)]
FACTS = [(t, t % 3) for t in range(6)]
FANS = [(t % 4, 10 + t) for t in range(8)]


def triangle_tables() -> dict:
    edges = Relation("E", ("src", "dst"), EDGES)
    return {"E1": edges, "E2": edges, "E3": edges}


def star_tables(fans=FANS) -> dict:
    return {"F": Relation("F", ("t", "x"), FACTS),
            "A": Relation("A", ("t", "p"), fans)}


def brute_force(query: str, tables: dict) -> int:
    """The bag count: one result per combination of stored rows that
    agrees on every shared attribute."""
    atoms = parse_query(query).atoms
    count = 0
    for rows in product(*(tables[atom.alias].rows for atom in atoms)):
        binding: dict = {}
        count += all(binding.setdefault(attribute, value) == value
                     for atom, row in zip(atoms, rows)
                     for attribute, value in zip(atom.attributes, row))
    return count


def _prepare_then_execute(query, tables, **options):
    prepared = Session(tables).prepare(query, **options)
    return prepared.plan, prepared.execute()


#: entry point -> (compiled plan or None, result or None)
ENTRIES = {
    "join": lambda q, t, **o: (None, join(q, t, **o)),
    "Session.prepare": _prepare_then_execute,
    "Session.execute": lambda q, t, **o: (None, Session(t).execute(q, **o)),
    "plan": lambda q, t, **o: (plan(bind(q, t), **o), None),
}

#: name -> (query, tables, options, resolved engine, plan algorithm, kind
#: built per atom, metrics.algorithm, metrics.index, engine_note part)
CASES = {
    "int64 columns": (
        TRIANGLE, triangle_tables, {},
        "batch", "generic", "columnar", "generic_join_batch", "columnar",
        None),
    "one string column": (
        STAR, lambda: star_tables([(t, f"p{p}") for t, p in FANS]), {},
        "batch", "generic", "columnar", "generic_join_batch", "columnar",
        None),
    "auto, acyclic, distinct rows": (
        STAR, star_tables, {"algorithm": "auto"},
        "batch", "generic", "columnar", "generic_join_batch", "columnar",
        "batch in the binary pipeline's place"),
    "auto, acyclic, one repeated row": (
        STAR, lambda: star_tables(FANS + FANS[:1]), {"algorithm": "auto"},
        "batch", "generic", "columnar", "generic_join_batch", "columnar",
        "batch in the binary pipeline's place"),
    "auto, one atom, one repeated row": (
        ATOM, lambda: {"A": Relation("A", ("t", "p"), FANS + FANS[:1])},
        {"algorithm": "auto"},
        "batch", "generic", "columnar", "generic_join_batch", "columnar",
        "batch in the binary pipeline's place"),
    "the paper's path, by name": (
        TRIANGLE, triangle_tables, {"engine": "tuple", "index": "sonic"},
        "tuple", "generic", "sonic", "generic_join", "sonic", None),
}


@pytest.mark.parametrize("entry", ENTRIES)
@pytest.mark.parametrize("case", CASES)
def test_what_runs_when_no_engine_is_named(case, entry):
    (query, make_tables, options, engine, algorithm, kind, driver, index,
     note) = CASES[case]
    tables = make_tables()
    if engine == "tuple" and entry != "join":
        # a plan describes the frontier only: the paper's path is join()'s
        with pytest.raises(ConfigurationError,
                           match=r'join\(engine="tuple"\)'):
            ENTRIES[entry](query, tables, **options)
        return
    compiled, result = ENTRIES[entry](query, tables, **options)
    if compiled is not None:
        assert (compiled.engine, compiled.algorithm) == (engine, algorithm)
        assert {spec.kind for spec in compiled.index_specs} == {kind}
        if note is None:
            assert compiled.engine_note == ""
        else:
            assert note in compiled.engine_note
            assert note in compiled.describe()
    if result is not None:
        assert (result.metrics.algorithm, result.metrics.index) == \
            (driver, index)
        assert result.count == brute_force(query, tables)


def test_the_three_signatures_say_auto():
    for entry in (join, Session.prepare, plan):
        assert inspect.signature(entry).parameters["engine"].default == "auto"


# ----------------------------------------------------------------------
# the serve path: which structures a default Session ends up holding
# ----------------------------------------------------------------------
def cached_kinds(session: Session) -> set:
    return {key[1] for key in session.cache._entries}


def test_a_default_session_holds_only_tries():
    tables = {**triangle_tables(), **star_tables()}
    edges, fans = tables["E1"], tables["A"]

    def read(session: Session) -> None:
        for query, options in ((TRIANGLE, {}), (STAR, {"algorithm": "auto"})):
            assert session.execute(query, **options).count == \
                brute_force(query, tables)

    with Session(tables) as session:
        read(session)
        for step in range(3):
            edges.extend([(step, (step * 3 + 3) % 7)])    # k = 3: new
            fans.extend([(step, 100 + step)])
            read(session)
        # a repeated row and then a string value change nothing: every
        # miss is a rebuilt trie, and the reads count the bag
        fans.extend([FANS[0]])
        read(session)
        fans.extend([(3, "p200")])
        read(session)
        assert cached_kinds(session) == {"columnar"}
