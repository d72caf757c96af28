"""The Session's plan cache: a warm read reuses its bind, plan and
frontier program, and plans again whenever an input of the plan moved.

A cached plan stays valid while every atom's stored relation is the same
object in the source, with the same dtype classes: a session holds
frontier plans only, and none reads the relations' sizes, so a write
keeps the plan.
"""

from __future__ import annotations

import gc
import weakref
from itertools import product

import repro.engine.pipeline as pipeline
import repro.engine.session as session_module
import repro.joins.batch as batch
from repro.engine import Session
from repro.planner.query import parse_query
from repro.storage.catalog import Catalog
from repro.storage.relation import Relation

TRIANGLE = "E1=E(a,b), E2=E(b,c), E3=E(c,a)"
STAR = "F(t,x), A(t,p)"
EDGES = [(0, 1), (1, 2), (2, 0), (0, 3), (3, 1), (2, 3), (3, 0)]


def brute_force(query: str, tables: dict) -> int:
    """The bag count: one result per combination of stored rows that
    agrees on every shared attribute (atoms looked up by relation)."""
    atoms = parse_query(query).atoms
    count = 0
    for rows in product(*(tables[atom.relation].rows for atom in atoms)):
        binding: dict = {}
        count += all(binding.setdefault(attribute, value) == value
                     for atom, row in zip(atoms, rows)
                     for attribute, value in zip(atom.attributes, row))
    return count


def star_tables() -> dict:
    return {"F": Relation("F", ("t", "x"), [(t, t % 3) for t in range(8)]),
            "A": Relation("A", ("t", "p"),
                          [(t % 5, t) for t in range(12)] + [(1, 1)])}


def counts(session: Session) -> tuple[int, int]:
    return session.metrics.get("plan.hit"), session.metrics.get("plan.miss")


class TestReuse:
    def test_a_repeated_read_hits(self):
        tables = star_tables()
        session = Session(tables)
        for _ in range(3):
            assert session.execute(STAR).count == brute_force(STAR, tables)
        assert counts(session) == (2, 1)

    def test_options_key_the_plan(self):
        tables = star_tables()
        session = Session(tables)
        session.execute(STAR)
        session.execute(STAR, materialize=True)        # not a plan option
        session.execute(STAR, algorithm="generic", engine="batch")
        session.execute(STAR, order=("t", "p", "x"))
        session.execute(parse_query(STAR))             # keyed by its atoms
        session.execute(parse_query(STAR))
        assert counts(session) == (2, 4)

    def test_a_hit_skips_parse_bind_plan_and_order(self, monkeypatch):
        tables = star_tables()
        session = Session(tables)
        session.execute(STAR)
        calls = []

        def spy(module, name):
            real = getattr(module, name)

            def counted(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)

        spy(session_module, "parse_query")
        spy(session_module, "plan")
        spy(pipeline, "resolve_relations")
        spy(pipeline, "resolve_order")
        programs = []
        real_driver = batch.GenericJoinBatch.__init__

        def recording(driver, program, *args, **kwargs):
            programs.append(program)
            real_driver(driver, program, *args, **kwargs)
        monkeypatch.setattr(batch.GenericJoinBatch, "__init__", recording)

        expected = brute_force(STAR, tables)
        assert session.execute(STAR).count == expected
        assert session.execute(STAR).count == expected
        assert calls == []
        assert len(programs) == 2 and programs[0] is programs[1]

    def test_a_write_under_a_frontier_plan_keeps_the_plan(self):
        tables = star_tables()
        session = Session(tables)
        session.execute(STAR)
        tables["A"].extend([(2, 50), (2, 50)])
        assert session.execute(STAR).count == brute_force(STAR, tables)
        assert counts(session) == (1, 1)


class TestReplan:
    def test_replacing_a_relation_in_a_mapping(self):
        tables = star_tables()
        session = Session(tables)
        session.execute(STAR)
        tables["A"] = Relation("A", ("t", "p"), [(0, 1), (0, 2), (7, 3)])
        assert session.execute(STAR).count == brute_force(STAR, tables) == 3
        assert counts(session) == (0, 2)

    def test_replacing_a_relation_in_a_catalog(self):
        tables = star_tables()
        catalog = Catalog(tables.values())
        session = Session(catalog)
        session.execute(STAR)
        catalog.replace(Relation("A", ("t", "p"), [(1, 1), (6, 6)]))
        tables["A"] = catalog.get("A")
        assert session.execute(STAR).count == brute_force(STAR, tables) == 2
        assert counts(session) == (0, 2)

    def test_a_column_turning_to_objects_codes_it(self):
        tables = star_tables()
        session = Session(tables)
        assert session.execute(STAR).count == brute_force(STAR, tables)
        before = session.prepare(STAR).plan
        assert all(spec.options == () for spec in before.index_specs)
        # the join column t of A takes a string: int64 -> object
        tables["A"].extend([("x", 1), (3, 9), (3, 9)])
        tables["F"].extend([("x", 0)])
        assert tables["A"].dtype_classes()[0] == "object"
        assert session.execute(STAR).count == brute_force(STAR, tables)
        after = session.prepare(STAR).plan
        assert {spec.alias: dict(spec.options).get("coded")
                for spec in after.index_specs} == {"F": (0,), "A": (0,)}
        rows = session.execute(STAR, materialize=True).rows
        assert len(rows) == brute_force(STAR, tables)
        assert ("x", 0, 1) in rows


class TestUncached:
    def test_profiled_calls_plan_afresh(self):
        tables = {"E": Relation("E", ("src", "dst"), EDGES)}
        session = Session(tables)
        session.execute(TRIANGLE, algorithm="auto")
        for _ in range(2):
            result = session.execute(TRIANGLE, algorithm="auto",
                                     profile=True)
            names = {span["name"] for span in result.profile.spans}
            assert {"bind", "plan", "optimize", "prepare"} <= names
            estimated = result.profile.optimizer["estimated"]
            assert estimated["agm_bound"] is not None
            assert estimated["binary_peak_intermediates"] is not None
        assert counts(session) == (0, 1)

    def test_an_unhashable_option_value_is_uncacheable(self):
        tables = star_tables()
        session = Session(tables)
        for _ in range(2):
            # accepted under the batch engine, which builds no Sonic
            result = session.execute(STAR, engine="batch",
                                     index_options={"fanout": [64]})
            assert result.count == brute_force(STAR, tables)
        assert counts(session) == (0, 0)


class TestMemory:
    def test_cached_plans_pin_no_trie(self):
        tables = star_tables()
        session = Session(tables)
        prepared = session.prepare(STAR)
        prepared.execute()
        assert prepared.programs       # compiled, on the cached plan
        trie = weakref.ref(prepared.structures["A"])
        session.clear_cache()
        del prepared
        gc.collect()
        assert trie() is None
        # the plan (and its program) outlived the structures
        session.execute(STAR)
        assert counts(session) == (1, 1)

    def test_the_plan_cache_is_bounded(self, monkeypatch):
        monkeypatch.setattr(session_module, "_PLAN_ENTRIES", 3)
        tables = star_tables()
        session = Session(tables)
        orders = [("t", "x", "p"), ("t", "p", "x"), ("x", "t", "p"),
                  ("p", "t", "x")]
        for order in orders:
            session.execute(STAR, order=order)
        session.execute(STAR, order=orders[-1])
        session.execute(STAR, order=orders[0])   # the least recent: gone
        assert counts(session) == (1, 5)

    def test_close_drops_the_plans(self):
        session = Session(star_tables())
        session.execute(STAR)
        session.close()
        session.execute(STAR)
        assert counts(session) == (0, 2)
