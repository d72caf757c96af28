"""The plan IR: spec construction, the plan's shape, option policing.

A plan describes what runs — the frontier.  The paper's tuple drivers
have none; what they build for themselves at ``join()``'s door is
checked here through their profiles.
"""

from __future__ import annotations

import dataclasses
from collections import Counter

import pytest

from repro.engine import JoinPlan, Session, bind, plan
from repro.engine.ir import COLUMNAR_KIND, canonical_options
from repro.errors import ConfigurationError
from repro.joins import LeapfrogTrieJoin, join
from repro.storage.relation import Relation

TRIANGLE = "E1=E(a,b), E2=E(b,c), E3=E(c,a)"


@pytest.fixture
def tables() -> dict[str, Relation]:
    edges = Relation("E", ("src", "dst"), [(0, 1), (1, 2), (2, 0)])
    return {"E1": edges, "E2": edges, "E3": edges}


@pytest.fixture
def bound(tables):
    return bind(TRIANGLE, tables)


class TestPlanConstruction:
    def test_generic_plan_fields(self, bound):
        compiled = plan(bound, algorithm="generic", index="sonic",
                        index_kwargs={"sonic_bucket_size": 4})
        assert compiled.algorithm == "generic"
        assert compiled.engine == "batch"
        assert compiled.index == "sonic"
        assert compiled.total_order == ("a", "b", "c")
        assert len(compiled.index_specs) == 3
        spec = compiled.spec_for("E3")
        # E3(c,a): total order puts a before c → permutation flips columns
        assert spec.attribute_order == ("a", "c")
        assert spec.permutation == (1, 0)
        # Sonic's options are accepted and configure nothing built
        assert spec.kind == COLUMNAR_KIND and spec.options == ()

    def test_engine_auto_resolves_at_plan_time(self, bound):
        # batch is a property of the input (every joined column int64),
        # not of the index kind — which the batch engine does not build
        for index in ("sonic", "btree"):
            compiled = plan(bound, engine="auto", index=index)
            assert compiled.engine == "batch"
            assert compiled.index == index
            assert {s.kind for s in compiled.index_specs} == {COLUMNAR_KIND}
            assert compiled.engine_note == ""
        # the tuple engine is the paper's door, which has no plan
        with pytest.raises(ConfigurationError,
                           match=r'join\(engine="tuple"\)'):
            plan(bound, engine="tuple")

    def test_batch_over_object_columns_codes_them(self):
        names = Relation("N", ("src", "dst"),
                         [("a", "b"), ("b", "c"), ("c", "a")])
        source = {"E1": names, "E2": names, "E3": names}
        bound = bind(TRIANGLE, source)
        for engine in ("auto", "batch"):
            compiled = plan(bound, engine=engine, algorithm="auto")
            assert compiled.engine == "batch"
            # every column of every atom is coded, and the spec says so:
            # it is part of the cache key
            assert {s.kind for s in compiled.index_specs} == {COLUMNAR_KIND}
            assert {dict(s.options)["coded"]
                    for s in compiled.index_specs} == {(0, 1)}
        result = join(TRIANGLE, source, engine="batch", materialize=True)
        assert result.metrics.index == "columnar"
        assert sorted(result.rows) == [("a", "b", "c"), ("b", "c", "a"),
                                       ("c", "a", "b")]

    @pytest.mark.parametrize("key", [
        lambda t: f"k{t}", lambda t: t + 0.5, lambda t: 2 ** 63 + t,
    ], ids=["string", "float", "past_int64"])
    def test_a_star_keyed_on_any_value_is_one_frontier_stage(self, key):
        facts = Relation("F", ("t", "x"), [(key(t), t) for t in range(6)])
        fans = Relation("A", ("t", "p"),
                        [(key(t % 4), 10 + t) for t in range(8)]
                        + [(key(0), 10)])             # and a repeated row
        source = {"F": facts, "A": fans}
        compiled = plan(bind("F(t,x), A(t,p)", source), algorithm="auto")
        assert "binary atoms=" not in compiled.describe()
        assert (compiled.algorithm, compiled.engine) == ("generic", "batch")
        result = join("F(t,x), A(t,p)", source, algorithm="auto",
                      materialize=True)
        got = Counter(frozenset(zip(result.attributes, row))
                      for row in result.rows)
        truth = Counter(frozenset({"t": t, "x": x, "p": p}.items())
                        for t, x in facts.rows for s, p in fans.rows
                        if s == t)
        assert got == truth and sum(truth.values()) == 9

    def test_auto_algorithm_is_resolved_and_carries_choice(self, bound):
        compiled = plan(bound, algorithm="auto")
        assert compiled.algorithm in ("generic", "binary")
        assert compiled.choice is not None

    def test_binary_plan_uses_atom_order_and_hashtables(self, tables):
        # the binary pipeline has no plan: its run probes in the pinned
        # order and hashes each non-leading atom inside ``prepare``
        profile = join(TRIANGLE, tables, algorithm="binary",
                       binary_order=["E1", "E2", "E3"], profile=True).profile
        assert profile.order == ("E1", "E2", "E3")
        assert built(profile) == {"E2": "hashtable", "E3": "hashtable"}

    def test_leapfrog_specs_request_presorting(self, bound):
        # LFTJ seeks need its tries ordered up front: its build sorts
        driver = LeapfrogTrieJoin(bound.query, bound.relations)
        driver.build()
        assert not any(trie._dirty for trie in driver._tries.values())

    def test_plan_is_inert_and_frozen(self, bound):
        compiled = plan(bound)
        with pytest.raises(dataclasses.FrozenInstanceError):
            compiled.algorithm = "binary"
        with pytest.raises(KeyError):
            compiled.spec_for("nope")

    def test_describe_summarizes(self, bound):
        text = plan(bound, engine="batch").describe()
        assert "generic/batch" in text and "order=a,b,c" in text

    def test_cache_key_suffix_distinguishes_options(self, bound):
        # a trie over coded columns is not the trie over the same
        # columns uncoded
        names = Relation("N", ("src", "dst"), [("a", "b"), ("b", "c")])
        coded = plan(bind(TRIANGLE, dict.fromkeys(("E1", "E2", "E3"),
                                                  names)))
        a, b = plan(bound).spec_for("E1"), coded.spec_for("E1")
        assert a.permutation == b.permutation
        assert a.cache_key_suffix() != b.cache_key_suffix()
        assert canonical_options({"x": 1, "a": 2}) == (("a", 2), ("x", 1))


class TestOptionPolicing:
    """Satellite: index options the algorithm cannot honor must raise."""

    @pytest.mark.parametrize("algorithm", ["binary", "leapfrog"])
    def test_index_kwargs_rejected(self, tables, algorithm):
        with pytest.raises(ConfigurationError, match="cannot honor"):
            join(TRIANGLE, tables, algorithm=algorithm, sonic_bucket_size=4)

    def test_hashtrie_rejects_foreign_options(self, tables):
        with pytest.raises(ConfigurationError, match="cannot honor"):
            join(TRIANGLE, tables, algorithm="hashtrie", sonic_bucket_size=4)
        # its own knobs still work
        assert join(TRIANGLE, tables, algorithm="hashtrie", lazy=False,
                    singleton_pruning=False).count == 3

    def test_generic_rejects_unknown_options(self, tables):
        with pytest.raises(ConfigurationError, match="cannot honor"):
            join(TRIANGLE, tables, algorithm="generic", bucket_size=4)

    def test_sonic_options_need_the_sonic_index(self, tables):
        with pytest.raises(ConfigurationError, match="sonic"):
            join(TRIANGLE, tables, algorithm="generic", index="btree",
                 sonic_bucket_size=4)

    def test_sonic_options_accepted_on_sonic(self, tables):
        assert join(TRIANGLE, tables, engine="tuple", sonic_bucket_size=4,
                    sonic_overallocation=3.0).count == 3

    def test_unknown_algorithm_and_engine_messages(self, tables):
        with pytest.raises(ConfigurationError, match="unknown algorithm"):
            join(TRIANGLE, tables, algorithm="nested-loop")
        with pytest.raises(ConfigurationError, match="unknown engine"):
            join(TRIANGLE, tables, engine="vectorized")
        # the relation-recursive driver is gone: its name is unknown
        with pytest.raises(ConfigurationError, match="unknown algorithm"):
            join(TRIANGLE, tables, algorithm="recursive")
        with pytest.raises(ConfigurationError, match="unknown algorithm"):
            Session(tables).prepare(TRIANGLE, algorithm="recursive")


def built(profile) -> dict:
    """alias -> the structure kind each ``build_index`` span built."""
    return {span["args"]["alias"]: span["args"]["index"]
            for span in profile.spans if span["name"] == "build_index"}


class TestPlanValidation:
    """What ``plan()`` emits is the frontier's one shape."""

    def test_sound_plans_pass(self, bound):
        for algorithm in ("generic", "auto", "unified"):
            for engine in ("auto", "batch"):
                compiled = plan(bound, algorithm=algorithm, engine=engine)
                assert (compiled.algorithm, compiled.engine) == \
                    ("generic", "batch")
                atoms = {atom.alias: atom for atom in compiled.query.atoms}
                assert [spec.alias for spec in compiled.index_specs] == \
                    list(atoms)
                for spec in compiled.index_specs:
                    # a permutation of the relation's columns, listing
                    # the atom's attributes in the total order
                    assert sorted(spec.permutation) == \
                        list(range(bound.relations[spec.alias].arity))
                    assert tuple(atoms[spec.alias].attributes[i]
                                 for i in spec.permutation) == \
                        spec.attribute_order


class TestJoinPlanDataclass:
    def test_plans_hash_and_compare_by_value(self, bound):
        a = plan(bound, algorithm="generic")
        b = plan(bound, algorithm="generic")
        assert a == b
        assert a is not b
        assert hash(a.index_specs[0]) == hash(b.index_specs[0])


class TestOneGyoReduction:
    """A join runs the GYO reduction once, however many of its readers
    — the optimizer's acyclicity test, the acyclic route — need it: in
    ``plan()`` on the frontier, at the paper's door under the tuple
    engine."""

    @pytest.mark.parametrize("engine", ["auto", "tuple"])
    @pytest.mark.parametrize("algorithm", ["auto", "unified"])
    def test_one_cyclic_core_per_plan(self, monkeypatch, algorithm, engine):
        from repro.engine import pipeline
        from repro.joins import executor
        from repro.planner import optimizer

        calls = []
        reduce = optimizer.cyclic_core

        def counted(hypergraph):
            calls.append(hypergraph)
            return reduce(hypergraph)

        monkeypatch.setattr(optimizer, "cyclic_core", counted)
        monkeypatch.setattr(pipeline, "cyclic_core", counted)
        monkeypatch.setattr(executor, "cyclic_core", counted)
        tables = {"E": Relation("E", ("src", "dst"), [(0, 1), (1, 2), (2, 0)]),
                  "T": Relation("T", ("src", "tag"), [(0, 5), (1, 6)])}
        for query in (TRIANGLE, "E1=E(a,b), E2=E(b,c)",
                      "E1=E(a,b), E2=E(b,c), E3=E(c,a), T(a,d)"):
            calls.clear()
            join(query, tables, algorithm=algorithm, engine=engine)
            assert len(calls) == 1, query
