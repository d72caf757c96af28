"""Reporting helpers tests."""

import json

from repro.bench import print_series, print_table, save_results
from repro.bench.reporting import format_value


class TestFormatting:
    def test_format_value(self):
        assert format_value(3) == "3"
        assert format_value(0.5) == "0.5"
        assert format_value(1234567.0) == "1.235e+06"
        assert format_value(0.00001) == "1.000e-05"
        assert format_value("x") == "x"
        assert format_value(0.0) == "0"

    def test_print_table(self, capsys):
        print_table("demo", [{"a": 1, "b": "x"}, {"a": 2, "b": "y"}])
        output = capsys.readouterr().out
        assert "demo" in output
        assert "a" in output and "b" in output
        assert "2" in output and "y" in output

    def test_print_table_empty(self, capsys):
        print_table("empty", [])
        assert "(no rows)" in capsys.readouterr().out

    def test_print_series(self, capsys):
        print_series("fig", "x", [1, 2], {"sonic": [0.1, 0.2],
                                          "btree": [0.3, 0.4]})
        output = capsys.readouterr().out
        assert "sonic" in output and "btree" in output


class TestPersistence:
    def test_save_results_merges(self, tmp_path):
        path = tmp_path / "results.json"
        save_results(path, "fig1", {"x": 1})
        save_results(path, "fig2", {"y": 2})
        data = json.loads(path.read_text())
        assert data == {"fig1": {"x": 1}, "fig2": {"y": 2}}
