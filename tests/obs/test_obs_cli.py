"""The ``python -m repro.obs`` CLI: demos, exports, and error paths."""

import json

import pytest

pytest.importorskip("numpy")

from repro.obs.cli import _build_parser, main
from repro.obs.profile import validate_profile


class TestDemoRuns:
    def test_triangle_demo_prints_report(self, capsys):
        assert main(["--demo", "triangle"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("EXPLAIN ANALYZE")
        assert "counters:" in out

    def test_exports_validate(self, tmp_path, capsys):
        json_out = tmp_path / "profile.json"
        trace_out = tmp_path / "trace.json"
        assert main(["--demo", "triangle", "--quiet",
                     "--json", str(json_out),
                     "--trace", str(trace_out)]) == 0
        assert capsys.readouterr().out == ""

        payload = json.loads(json_out.read_text())
        validate_profile(payload)
        # no --engine: join()'s default, batch over the demo's int64 graph
        assert payload["algorithm"] == "generic_join_batch"

        doc = json.loads(trace_out.read_text())
        assert doc["displayTimeUnit"] == "ms"
        assert doc["traceEvents"], "trace must carry at least one span"
        for event in doc["traceEvents"]:
            assert event["ph"] == "X"
            assert set(event) >= {"name", "ts", "dur", "pid", "tid", "cat"}

    def test_default_render_names_the_driver_that_ran(self, capsys):
        assert main(["--demo", "triangle"]) == 0
        out = capsys.readouterr().out
        assert "algorithm=generic_join_batch" in out
        assert "stage tree:" not in out

    def test_an_explicit_algorithm_reaches_the_render(self, capsys):
        for algorithm, driver in (("generic", "generic_join_batch"),
                                  ("unified", "generic_join_batch"),
                                  ("binary", "binary_join")):
            assert main(["--demo", "triangle", "--algorithm", algorithm]) == 0
            assert f"algorithm={driver} " in capsys.readouterr().out

    def test_json_is_schema_4_without_stages(self, tmp_path):
        json_out = tmp_path / "profile.json"
        assert main(["--demo", "triangle", "--algorithm", "unified",
                     "--quiet", "--json", str(json_out)]) == 0
        payload = json.loads(json_out.read_text())
        validate_profile(payload)
        assert payload["schema_version"] == 4
        assert "stages" not in payload

    def test_engine_flag_reaches_the_profile(self, tmp_path):
        json_out = tmp_path / "profile.json"
        for engine in ("batch", "tuple"):
            assert main(["--demo", "triangle", "--quiet", "--engine", engine,
                         "--json", str(json_out)]) == 0
            payload = json.loads(json_out.read_text())
            assert payload["engine"] == engine
        assert "engine (default: auto)" in " ".join(
            _build_parser().format_help().split())


class TestQueryFlags:
    def test_query_with_csv_relations(self, tmp_path, capsys):
        csv = tmp_path / "edges.csv"
        csv.write_text("src,dst\n0,1\n1,2\n2,0\n")
        binding = f"E1={csv}"
        assert main(["--query", "E1=E(a,b), E2=E(b,c), E3=E(c,a)",
                     "--relation", binding,
                     "--relation", f"E2={csv}",
                     "--relation", f"E3={csv}"]) == 0
        assert "results=3" in capsys.readouterr().out

    def test_spec_file(self, tmp_path, capsys):
        csv = tmp_path / "edges.csv"
        csv.write_text("src,dst\n0,1\n1,2\n2,0\n")
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "query": "E1=E(a,b), E2=E(b,c), E3=E(c,a)",
            "relations": {"E1": str(csv), "E2": str(csv), "E3": str(csv)},
            "algorithm": "leapfrog",
        }))
        assert main(["--spec", str(spec), "--quiet"]) == 0


class TestErrorPaths:
    def test_no_workload_is_usage_error(self, capsys):
        assert main([]) == 2
        assert "exactly one of" in capsys.readouterr().err

    def test_two_workloads_is_usage_error(self, tmp_path):
        assert main(["--demo", "triangle", "--query", "E1=E(a,b)"]) == 2

    def test_query_without_relations(self):
        with pytest.raises(SystemExit):
            main(["--query", "E1=E(a,b)"])

    def test_unknown_algorithm_is_an_error_not_a_traceback(self, capsys):
        assert main(["--demo", "triangle", "--algorithm", "bogus"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unknown algorithm 'bogus'")
        assert "Traceback" not in err

    def test_a_sharded_tuple_plan_is_refused(self, capsys):
        assert main(["--demo", "triangle", "--engine", "tuple",
                     "--parallel", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert 'join(engine="tuple")' in captured.err
