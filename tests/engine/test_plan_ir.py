"""The plan IR: spec construction, RA306/RA307 validation, option policing."""

from __future__ import annotations

import dataclasses
from collections import Counter

import pytest

from repro.analysis.plancheck import check_join_plan, validate_join_plan
from repro.engine import (
    COLUMNAR_KIND,
    HASHTABLE_KIND,
    TUPLESET_KIND,
    IndexSpec,
    JoinPlan,
    bind,
    canonical_options,
    plan,
)
from repro.errors import ConfigurationError, PlanValidationError
from repro.joins import join
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
                        engine="tuple")
        assert compiled.algorithm == "generic"
        assert compiled.engine == "tuple"
        assert compiled.index == "sonic"
        assert compiled.total_order == ("a", "b", "c")
        assert compiled.atom_order == ()
        assert len(compiled.index_specs) == 3
        spec = compiled.spec_for("E3")
        # E3(c,a): total order puts a before c → permutation flips columns
        assert spec.attribute_order == ("a", "c")
        assert spec.permutation == (1, 0)
        assert dict(spec.options)["bucket_size"] == 8

    def test_engine_auto_resolves_at_plan_time(self, bound):
        # batch is a property of the input (every joined column int64),
        # not of the index kind — which the batch engine does not build
        for index in ("sonic", "btree"):
            compiled = plan(bound, engine="auto", index=index)
            assert compiled.engine == "batch"
            assert compiled.index == index
            assert {s.kind for s in compiled.index_specs} == {COLUMNAR_KIND}
            assert compiled.engine_note == ""
        assert plan(bound, engine="tuple").engine_note == ""

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

    def test_binary_plan_uses_atom_order_and_hashtables(self, bound):
        compiled = plan(bound, algorithm="binary",
                        binary_order=["E1", "E2", "E3"])
        assert compiled.atom_order == ("E1", "E2", "E3")
        assert compiled.total_order == ()
        assert {s.alias for s in compiled.index_specs} == {"E2", "E3"}
        stage = compiled.spec_for("E2")
        assert stage.kind == HASHTABLE_KIND
        assert stage.key_arity == 1  # probes on b, payload c

    def test_recursive_plan_uses_tuplesets(self, bound):
        compiled = plan(bound, algorithm="recursive")
        assert all(s.kind == TUPLESET_KIND for s in compiled.index_specs)

    def test_leapfrog_specs_request_presorting(self, bound):
        compiled = plan(bound, algorithm="leapfrog")
        assert all(dict(s.options)["sorted"] for s in compiled.index_specs)

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
        # the tuple engine builds the Sonic index the options configure
        a, b = (plan(bound, engine="tuple",
                     index_kwargs={"sonic_bucket_size": size}).spec_for("E1")
                for size in (8, 16))
        assert a.cache_key_suffix() != b.cache_key_suffix()
        assert canonical_options({"x": 1, "a": 2}) == (("a", 2), ("x", 1))


class TestOptionPolicing:
    """Satellite: index options the algorithm cannot honor must raise."""

    @pytest.mark.parametrize("algorithm", ["binary", "leapfrog", "recursive"])
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


def with_specs(compiled, specs):
    """``compiled`` with its index specs replaced."""
    return dataclasses.replace(compiled, index_specs=specs)


class TestPlanValidation:
    """RA306/RA307 over hand-corrupted plans."""

    def test_sound_plans_pass(self, bound):
        for algorithm in ("generic", "binary", "hashtrie", "leapfrog",
                          "recursive"):
            compiled = plan(bound, algorithm=algorithm)
            assert validate_join_plan(
                compiled, relations=bound.relations) == []

    def test_ra307_unresolved_algorithm(self, bound):
        compiled = dataclasses.replace(plan(bound), algorithm="auto")
        codes = [i.code for i in validate_join_plan(compiled)]
        assert "RA307" in codes

    def test_ra307_unknown_engine(self, bound):
        compiled = dataclasses.replace(plan(bound), engine="vectorized")
        with pytest.raises(PlanValidationError, match="RA307"):
            check_join_plan(compiled)

    def test_ra306_bad_permutation(self, bound):
        compiled = plan(bound)
        bad = dataclasses.replace(compiled.index_specs[0],
                                  permutation=(0, 2))
        compiled = with_specs(compiled, (bad,) + compiled.index_specs[1:])
        codes = [i.code for i in validate_join_plan(compiled)]
        assert "RA306" in codes

    def test_ra306_missing_spec(self, bound):
        compiled = plan(bound)
        compiled = with_specs(compiled, compiled.index_specs[:2])
        with pytest.raises(PlanValidationError, match="RA306"):
            check_join_plan(compiled)

    def test_ra306_hashtable_without_key_split(self, bound):
        compiled = plan(bound, algorithm="binary",
                        binary_order=["E1", "E2", "E3"])
        bad = dataclasses.replace(compiled.index_specs[0], key_arity=None)
        compiled = with_specs(compiled, (bad,) + compiled.index_specs[1:])
        codes = [i.code for i in validate_join_plan(compiled)]
        assert "RA306" in codes

    def test_ra306_foreign_alias(self, bound):
        compiled = plan(bound)
        stray = IndexSpec(alias="Z", kind="sonic",
                          attribute_order=("a", "b"), permutation=(0, 1))
        compiled = with_specs(compiled, compiled.index_specs + (stray,))
        codes = [i.code for i in validate_join_plan(compiled)]
        assert "RA306" in codes

    def test_debug_join_runs_ir_checks(self, tables):
        # the debug path reaches check_join_plan without raising on a
        # well-formed query end to end
        assert join(TRIANGLE, tables, debug=True).count == 3


class TestJoinPlanDataclass:
    def test_plans_hash_and_compare_by_value(self, bound):
        a = plan(bound, algorithm="leapfrog")
        b = plan(bound, algorithm="leapfrog")
        assert a == b
        assert a is not b
        assert hash(a.index_specs[0]) == hash(b.index_specs[0])


class TestOneGyoReduction:
    """``plan()`` runs the GYO reduction once, however many of its
    readers — the optimizer's acyclicity test, the acyclic route — need
    it."""

    @pytest.mark.parametrize("engine", ["auto", "tuple"])
    @pytest.mark.parametrize("algorithm", ["auto", "unified"])
    def test_one_cyclic_core_per_plan(self, monkeypatch, algorithm, engine):
        from repro.engine import pipeline
        from repro.planner import optimizer

        calls = []
        reduce = optimizer.cyclic_core

        def counted(hypergraph):
            calls.append(hypergraph)
            return reduce(hypergraph)

        monkeypatch.setattr(optimizer, "cyclic_core", counted)
        monkeypatch.setattr(pipeline, "cyclic_core", counted)
        tables = {"E": Relation("E", ("src", "dst"), [(0, 1), (1, 2), (2, 0)]),
                  "T": Relation("T", ("src", "tag"), [(0, 5), (1, 6)])}
        for query in (TRIANGLE, "E1=E(a,b), E2=E(b,c)",
                      "E1=E(a,b), E2=E(b,c), E3=E(c,a), T(a,d)"):
            calls.clear()
            plan(bind(query, tables), algorithm=algorithm, engine=engine)
            assert len(calls) == 1, query
