"""Relation tests."""

import random

import pytest

from repro import Session, join
from repro.errors import SchemaError
from repro.storage import Relation, Schema


@pytest.fixture
def relation():
    return Relation("R", ("a", "b", "c"),
                    [(1, 2, 3), (1, 5, 6), (2, 2, 3)])


class TestBasics:
    def test_len_iter_contains(self, relation):
        assert len(relation) == 3
        assert (1, 2, 3) in relation
        assert (9, 9, 9) not in relation
        assert sorted(relation) == [(1, 2, 3), (1, 5, 6), (2, 2, 3)]

    def test_schema_from_sequence(self):
        relation = Relation("R", ["x", "y"], [(1, 2)])
        assert isinstance(relation.schema, Schema)

    def test_arity_mismatch_rejected(self):
        with pytest.raises(SchemaError):
            Relation("R", ("a", "b"), [(1, 2, 3)])

    def test_column(self, relation):
        assert relation.column("a") == [1, 1, 2]
        assert relation.column("c") == [3, 6, 3]


class TestOperations:
    def test_project(self, relation):
        projected = relation.project(("c", "a"))
        assert projected.schema.attributes == ("c", "a")
        assert sorted(projected) == [(3, 1), (3, 2), (6, 1)]

    def test_project_distinct(self, relation):
        projected = relation.project(("b",), distinct=True)
        assert sorted(projected) == [(2,), (5,)]

    def test_select(self, relation):
        selected = relation.select(lambda row: row[0] == 1)
        assert len(selected) == 2

    def test_reordered(self, relation):
        reordered = relation.reordered(("c", "b", "a"))
        assert reordered.schema.attributes == ("c", "b", "a")
        assert (3, 2, 1) in reordered

    def test_reordered_identity_returns_self(self, relation):
        assert relation.reordered(("a", "b", "c")) is relation

    def test_renamed_shares_rows(self, relation):
        view = relation.renamed(("x", "y", "z"))
        assert view.rows is relation.rows
        assert view.schema.attributes == ("x", "y", "z")

    def test_renamed_arity_checked(self, relation):
        with pytest.raises(SchemaError):
            relation.renamed(("x", "y"))

    def test_distinct(self):
        relation = Relation("R", ("a",), [(1,), (1,), (2,)])
        assert len(relation.distinct()) == 2

    def test_sorted(self):
        relation = Relation("R", ("a", "b"), [(2, 1), (1, 9), (1, 2)])
        assert list(relation.sorted()) == [(1, 2), (1, 9), (2, 1)]

    def test_sample_rows(self, relation):
        rng = random.Random(1)
        sample = relation.sample_rows(10, rng)
        assert len(sample) == 10
        assert all(row in relation.rows for row in sample)

    def test_sample_empty(self):
        relation = Relation("R", ("a",), [])
        assert relation.sample_rows(5, random.Random(1)) == []


class TestColumnsSurviveAppends:
    """``extend`` grows the materialized columns; it does not drop them."""

    @staticmethod
    def rederived(relation):
        fresh = Relation(relation.name, relation.schema, relation.rows)
        return fresh.columns(), fresh.dtype_classes()

    @pytest.mark.parametrize("appended", [
        [(7, 8, 9)],                          # int64 stays int64
        [(7, "x", 2 ** 70)],                  # two columns flip to object
        [(7, "x", 9), (8, 1, 2)],             # ints after the flip
    ], ids=["int", "flip", "flip-then-int"])
    def test_appended_columns_equal_rederived_ones(self, relation, appended):
        relation.columns()
        relation.column("b")
        relation.extend(appended)
        columns, classes = self.rederived(relation)
        for got, want in zip(relation.columns(), columns):
            assert got.dtype == want.dtype
            assert got.tolist() == want.tolist()
        assert relation.dtype_classes() == classes
        assert relation.column("b") == [row[1] for row in relation.rows]

    def test_readers_keep_the_old_columns(self, relation):
        view = relation.renamed(("x", "y", "z"))
        old_arrays = relation.columns()
        old_list = relation.column("a")
        view.extend([(9, "s", 9)])
        assert [len(array) for array in old_arrays] == [3, 3, 3]
        assert old_list == [1, 1, 2]
        assert old_arrays[1].dtype == "int64"
        # the view shares the storage, so it sees the grown columns
        assert view.column_array("y").tolist() == [2, 5, 2, "s"]
        assert view.column_dtype_class("y") == "object"

    def test_snapshot_names_version_count_and_columns(self, relation):
        version, count, columns = relation.snapshot()
        assert (version, count) == (0, 3)
        relation.extend([(4, 4, 4), (5, 5, 5)])
        relation.extend([])                   # no rows, no new version
        later = relation.snapshot()
        assert (later.version, later.count) == (1, 5)
        assert [len(column) for column in columns] == [3, 3, 3]
        assert later.columns[0].tolist() == [1, 1, 2, 4, 5]


class TestDuplicateFree:
    """A relation may repeat a row.  The columnar trie a read builds
    keeps the repeats as ``weights`` — ``None`` exactly when no row
    repeats — on whichever path the values allow, and the read counts
    every stored copy."""

    BIG = 2 ** 62          # two such columns do not pack into one key

    @staticmethod
    def weighs(session: Session, relation: Relation) -> bool:
        """Does the trie ``R(a,b)`` reads over ``relation`` weigh rows?"""
        prepared = session.prepare("R(a,b)")
        assert prepared.execute().count == len(relation)
        return prepared.structures["R"].weights is not None

    @pytest.mark.parametrize("rows, verdict", [
        ([], True),
        ([(1, 2)], True),
        ([(1, 2), (2, 1), (1, 3)], True),
        ([(1, 2), (2, 1), (1, 2)], False),
        ([(-BIG, BIG), (BIG, -BIG), (-BIG, -BIG)], True),      # lexsort
        ([(-BIG, BIG), (BIG, -BIG), (-BIG, BIG)], False),
        ([(1, "x"), (1, "y")], True),                          # coded
        ([(1, "x"), (2, "y"), (1, "x")], False),
    ])
    def test_verdict(self, rows, verdict):
        relation = Relation("R", ("a", "b"), rows)
        assert self.weighs(Session({"R": relation}), relation) is not verdict

    def test_an_append_is_rechecked_and_a_duplicate_is_for_good(self):
        relation = Relation("R", ("a", "b"), [(1, 2), (3, 4)])
        session = Session({"R": relation})
        assert not self.weighs(session, relation)
        relation.extend([(5, 6)])
        assert not self.weighs(session, relation)
        relation.extend([(3, 4)])
        assert self.weighs(session, relation)
        relation.extend([(7, 8)])
        assert self.weighs(session, relation)

    def test_a_dtype_flip_keeps_the_verdict_right(self):
        relation = Relation("R", ("a", "b"), [(1, 2), (3, 4)])
        session = Session({"R": relation})
        assert not self.weighs(session, relation)
        relation.extend([(1, "two")])           # column b turns object
        assert not self.weighs(session, relation)
        relation.extend([(1, "two")])
        assert self.weighs(session, relation)


class TestIntegerColumns:
    """A column is int64 only when every value is an integer that fits:
    nothing is coerced into the integer it resembles."""

    @pytest.mark.parametrize("values, dtype", [
        ([1, 2], "int64"),
        ([], "int64"),
        (["1", "2"], "object"),        # digit strings stay strings
        ([1.5, 2], "object"),          # a float is not truncated
        ([1, 2 ** 63], "object"),      # past int64
    ])
    def test_dtype_class(self, values, dtype):
        relation = Relation("R", ("a",), [(value,) for value in values])
        assert relation.dtype_classes() == (dtype,)
        assert relation.column_array("a").tolist() == values

    @pytest.mark.parametrize("values", [["1", "2"], [1.5, 2.5]],
                             ids=["digit-strings", "floats"])
    def test_lookalikes_do_not_join_integers(self, values):
        r = Relation("R", ("a", "b"), [(value, 0) for value in values])
        s = Relation("S", ("a", "c"), [(1, 0), (2, 0)])
        for algorithm in ("generic", "binary"):
            assert join("R(a,b), S(a,c)", {"R": r, "S": s},
                        algorithm=algorithm).count == 0
