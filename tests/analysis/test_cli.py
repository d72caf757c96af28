"""The CLI gate: exit codes, JSON output, subcommand routing."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
REPO_ROOT = Path(__file__).resolve().parents[2]


class TestExitCodes:
    def test_fixture_tree_with_planted_violations_fails(self, capsys):
        assert main([str(FIXTURES / "tree")]) == 1
        out = capsys.readouterr().out
        for rule in ("RA101", "RA102", "RA103"):
            assert rule in out

    def test_clean_tree_passes(self, capsys):
        assert main([str(FIXTURES / "clean")]) == 0
        assert "no findings" in capsys.readouterr().out

    def test_repo_src_and_benchmarks_are_clean(self, capsys):
        src = REPO_ROOT / "src"
        benchmarks = REPO_ROOT / "benchmarks"
        code = main([str(src), str(benchmarks)])
        assert code == 0, capsys.readouterr().out

    def test_warnings_gate(self, capsys):
        # RA701 is a warning; with no baseline to adopt it, any finding
        # that survives suppression fails the gate
        planted = FIXTURES / "concurrency" / "bad_global_registry.py"
        assert main([str(planted), "--no-contracts"]) == 1
        assert "RA701 [warning]" in capsys.readouterr().out


class TestOutputs:
    def test_json_report(self, capsys):
        assert main([str(FIXTURES / "tree"), "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["ok"] is False
        assert payload["summary"]["errors"] >= 3
        rules = {f["rule"] for f in payload["findings"]}
        assert {"RA101", "RA102", "RA103"} <= rules

    def test_rule_filter(self, capsys):
        assert main([str(FIXTURES / "tree"), "--rule", "RA103", "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert {f["rule"] for f in payload["findings"]} == {"RA103"}

    def test_unknown_rule_rejected(self):
        with pytest.raises(SystemExit):
            main([str(FIXTURES / "clean"), "--rule", "RA999"])

    def test_nonexistent_path_rejected(self, capsys):
        # a typo'd path in CI must not pass as "clean"
        with pytest.raises(SystemExit):
            main(["no/such/dir"])
        assert "no such path" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in ("RA101", "RA102", "RA103", "RA701", "RA703", "RA707",
                     "RA2xx"):
            assert rule in out

    def test_no_contracts_flag(self, capsys):
        assert main([str(FIXTURES / "clean"), "--no-contracts"]) == 0


@pytest.mark.slow
class TestSubprocessEntryPoints:
    """`python -m repro.analysis` and `python -m repro analysis` both gate."""

    def _run(self, *args):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in ("src", env.get("PYTHONPATH", "")) if p)
        return subprocess.run(
            [sys.executable, *args],
            cwd=REPO_ROOT, capture_output=True, text=True, env=env,
        )

    def test_module_entry_on_repo(self):
        result = self._run("-m", "repro.analysis", "src", "benchmarks")
        assert result.returncode == 0, result.stdout + result.stderr

    def test_repro_subcommand_on_fixtures(self):
        result = self._run("-m", "repro", "analysis",
                           str(FIXTURES / "tree"))
        assert result.returncode == 1, result.stdout + result.stderr
