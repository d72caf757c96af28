"""The thread-safety manifest: schema, classifications, CLI gate."""

import ast
import json

import pytest

from repro.analysis.cli import main
from repro.analysis.concurrency.manifest import (
    ENTRY_TABLE,
    build_manifest,
    classify_free_function,
    classify_process_entry,
    constructor_aliases,
    failing_entries,
    validate_manifest,
)
from repro.analysis.concurrency.model import parse_module

DRIVER_RUNS = {
    "GenericJoin.run",
    "GenericJoinBatch.run",
    "BinaryHashJoin.run",
    "LeapfrogTrieJoin.run",
    "RecursiveJoin.run",
}

SAFE = {"reentrant", "borrows-caller-lock"}


@pytest.fixture(scope="module")
def manifest():
    return build_manifest()


class TestManifestContents:
    def test_schema_valid(self, manifest):
        assert validate_manifest(manifest) == []

    def test_round_trips_through_json(self, manifest):
        assert json.loads(json.dumps(manifest)) == manifest

    def test_every_driver_classified(self, manifest):
        by_name = {e["qualname"]: e for e in manifest["entries"]}
        for qualname in DRIVER_RUNS:
            entry = by_name[qualname]
            assert entry["model"] == "per-call"
            assert entry["classification"] in SAFE, qualname

    def test_session_and_cache_thread_safe(self, manifest):
        by_name = {e["qualname"]: e for e in manifest["entries"]}
        for qualname in ("Session.prepare", "Session.execute",
                         "IndexCache.get", "IndexCache.put",
                         "IndexCache.put_if_absent",
                         "Metrics.inc", "Tracer.add_span"):
            entry = by_name[qualname]
            assert entry["model"] == "shared"
            assert entry["classification"] == "reentrant", qualname

    def test_no_required_entry_fails(self, manifest):
        assert failing_entries(manifest) == []

    def test_worker_entries_process_clean(self, manifest):
        # the worker boundary: only shared-memory handles and frozen
        # plan decisions cross; entries capture no module state that
        # would diverge between parent and workers
        by_name = {e["qualname"]: e for e in manifest["entries"]}
        for qualname in ("worker_main", "run_shard_task"):
            entry = by_name[qualname]
            assert entry["model"] == "process"
            assert entry["classification"] == "reentrant", qualname
            assert entry["writes"] == []

    def test_no_entry_is_unknown(self, manifest):
        # "unknown" means the table references a renamed/removed symbol
        assert [e["qualname"] for e in manifest["entries"]
                if e["classification"] == "unknown"] == []

    def test_table_names_exist_in_tree(self, manifest):
        assert len(manifest["entries"]) == sum(
            len(names) for _, names, *_ in ENTRY_TABLE)


class TestManifestValidation:
    def test_rejects_non_object(self):
        assert validate_manifest([]) == ["manifest is not an object"]

    def test_rejects_wrong_schema_and_empty_entries(self):
        problems = validate_manifest({"schema_version": 99, "entries": []})
        assert any("schema_version" in p for p in problems)
        assert any("entries" in p for p in problems)

    def test_rejects_unknown_model(self):
        problems = validate_manifest({
            "schema_version": 1,
            "entries": [{"qualname": "X.y", "path": "x.py",
                         "model": "thread", "classification": "reentrant",
                         "writes": []}],
        })
        assert any("shared|per-call|process" in p for p in problems)

    def test_rejects_bad_classification(self):
        problems = validate_manifest({
            "schema_version": 1,
            "entries": [{"qualname": "X.y", "path": "x.py",
                         "model": "shared", "classification": "maybe",
                         "writes": []}],
        })
        assert any("classification" in p for p in problems)


class TestClassifiers:
    def test_free_function_parameter_mutation_unsafe(self):
        source = ("def f(shared, x):\n"
                  "    shared.append(x)\n")
        model = parse_module(ast.parse(source), source)
        classification, writes = classify_free_function(
            model.functions["f"], model)
        assert classification == "unsafe"
        assert len(writes) == 1

    def test_free_function_local_rebinds_reentrant(self):
        source = ("def f(rows):\n"
                  "    out = []\n"
                  "    for r in rows:\n"
                  "        out.append(r)\n"
                  "    return out\n")
        model = parse_module(ast.parse(source), source)
        classification, writes = classify_free_function(
            model.functions["f"], model)
        assert classification == "reentrant"
        assert writes == []

    def test_constructor_aliases_found(self):
        source = ("class D:\n"
                  "    def __init__(self, adapters, plan):\n"
                  "        self.adapters = adapters\n"
                  "        self.order = plan.order\n"     # derived, not alias
                  "        self.bindings = {}\n")
        model = parse_module(ast.parse(source), source)
        assert constructor_aliases(model.classes["D"]) == {"adapters"}

    def test_process_entry_capturing_registry_unsafe(self):
        source = ("REGISTRY = {}\n"
                  "def worker(conn):\n"
                  "    REGISTRY['pid'] = conn\n")
        model = parse_module(ast.parse(source), source)
        classification, writes, captured = classify_process_entry(
            model.functions["worker"], model)
        assert classification == "unsafe"
        assert captured == ["REGISTRY"]

    def test_process_entry_reading_mutable_global_unsafe(self):
        # even a read-only capture diverges: fork copies the registry,
        # spawn re-imports an empty one
        source = ("CACHE = {}\n"
                  "def worker(conn):\n"
                  "    return CACHE.get('x')\n")
        model = parse_module(ast.parse(source), source)
        classification, _, captured = classify_process_entry(
            model.functions["worker"], model)
        assert classification == "unsafe"
        assert captured == ["CACHE"]

    def test_process_entry_capturing_lock_unsafe(self):
        source = ("import threading\n"
                  "LOCK = threading.Lock()\n"
                  "def worker(conn):\n"
                  "    with LOCK:\n"
                  "        return conn.recv()\n")
        model = parse_module(ast.parse(source), source)
        classification, _, captured = classify_process_entry(
            model.functions["worker"], model)
        assert classification == "unsafe"
        assert captured == ["LOCK"]

    def test_process_entry_with_locals_and_constants_reentrant(self):
        source = ("LIMIT = 8\n"
                  "def worker(conn):\n"
                  "    cache = {}\n"
                  "    cache['n'] = LIMIT\n"
                  "    return cache\n")
        model = parse_module(ast.parse(source), source)
        classification, writes, captured = classify_process_entry(
            model.functions["worker"], model)
        assert classification == "reentrant"
        assert writes == [] and captured == []

    def test_percall_alias_mutation_detected(self, tmp_path):
        # a driver that corrupts the shared structure it was handed must
        # come out unsafe even though the write goes through self
        from repro.analysis.concurrency.manifest import _percall_writes

        source = ("class D:\n"
                  "    def __init__(self, adapters):\n"
                  "        self.adapters = adapters\n"
                  "        self.out = []\n"
                  "    def run(self):\n"
                  "        self.adapters.append(None)\n"
                  "        self.out.append(1)\n")
        model = parse_module(ast.parse(source), source)
        cls = model.classes["D"]
        writes = _percall_writes(cls, "run", model,
                                 constructor_aliases(cls), frozenset())
        assert [".".join(w.key) for w in writes] == ["self.adapters"]


class TestManifestCli:
    def test_cli_writes_valid_manifest(self, tmp_path, capsys):
        target = tmp_path / "manifest.json"
        assert main(["--concurrency-manifest", str(target)]) == 0
        data = json.loads(target.read_text(encoding="utf-8"))
        assert validate_manifest(data) == []
        assert failing_entries(data) == []

    def test_cli_stdout_mode(self, capsys):
        assert main(["--concurrency-manifest"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert {e["qualname"] for e in data["entries"]} >= DRIVER_RUNS
