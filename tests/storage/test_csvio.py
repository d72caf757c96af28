"""CSV input tests."""

import pytest

from repro.errors import SchemaError
from repro.storage import Schema
from repro.storage.csvio import load_relation


class TestCsvRoundTrip:
    def test_typed_round_trip(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("a,b\n#type:int,#type:str\n1,x\n2,y\n")
        loaded = load_relation("R", path)
        assert sorted(loaded) == [(1, "x"), (2, "y")]
        assert loaded.schema == Schema(("a", "b"))

    def test_untyped_integer_inference(self, tmp_path):
        path = tmp_path / "plain.csv"
        path.write_text("a,b\n1,2\n3,4\n")
        loaded = load_relation("R", path)
        assert sorted(loaded) == [(1, 2), (3, 4)]

    def test_untyped_mixed_stays_string(self, tmp_path):
        path = tmp_path / "plain.csv"
        path.write_text("a,b\n1,x\n2,y\n")
        loaded = load_relation("R", path)
        assert (1, "x") in loaded

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(SchemaError):
            load_relation("R", path)

    def test_schema_mismatch_rejected(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(SchemaError):
            load_relation("R", path, schema=Schema(("x", "y")))

    def test_empty_relation_round_trip(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("a,b\n#type:str,#type:str\n")
        assert len(load_relation("R", path)) == 0


class TestMalformedInput:
    """A bad file names itself, the line and what is wrong with it."""

    def test_extra_cell_rejected(self, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text("a,b\n4,5\n1,2,3\n")
        with pytest.raises(SchemaError, match=r"wide\.csv, line 3: 3 cells, "
                                               r"but the header names 2"):
            load_relation("R", path)

    def test_missing_cell_rejected(self, tmp_path):
        path = tmp_path / "narrow.csv"
        path.write_text("a,b\n1\n")
        with pytest.raises(SchemaError, match=r"narrow\.csv, line 2: 1 cells"):
            load_relation("R", path)

    def test_cell_its_type_row_cannot_parse(self, tmp_path):
        path = tmp_path / "typed.csv"
        path.write_text("a,b\n#type:int,#type:str\n1,x\nseven,y\n")
        with pytest.raises(SchemaError, match=r"typed\.csv, line 4, column "
                                               r"'a': 'seven' is not int"):
            load_relation("R", path)

    def test_type_row_of_the_wrong_width(self, tmp_path):
        path = tmp_path / "tags.csv"
        path.write_text("a,b\n#type:int\n1,2\n")
        with pytest.raises(SchemaError, match=r"tags\.csv, line 2: 1 cells"):
            load_relation("R", path)

    def test_unknown_type_tag_rejected(self, tmp_path):
        path = tmp_path / "tags.csv"
        path.write_text("a,b\n#type:int,#type:integer\n1,2\n")
        with pytest.raises(SchemaError, match=r"tags\.csv, line 2: unknown "
                                               r"type tags \['#type:integer'\]"):
            load_relation("R", path)
