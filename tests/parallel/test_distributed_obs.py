"""Distributed observability: sharded profiles, merged traces, env flags.

Three contracts from the distributed-obs layer:

* **Counter conservation** — the per-shard ``join.emitted`` counters
  collected over the result pipes must sum to the single-process count
  of every join driver (and, where the driver exposes levels, the
  per-level survivor counts must sum level-for-level).  Sharding may
  move work between processes but must never invent or lose tuples.
  Only the frontier plan shards: a tuple driver refuses ``parallel=K``,
  and its single-process counts are held to the sharded frontier
  plan's.
* **Merged trace** — ``join(..., parallel=K, profile=True, trace_out=…)``
  writes one Chrome ``trace_event`` document whose parent spans and
  per-worker spans sit on distinct real-pid rows, labelled for Perfetto.
* **Worker env flags** — a worker honors inherited ``REPRO_PROFILE`` /
  ``REPRO_TRACE_OUT`` even when the parent did not request counters
  (the regression: worker-side obs used to be pinned off unless the
  task asked).
"""

import json
import random

import pytest

pytest.importorskip("numpy")

from repro.engine.pipeline import bind, plan, prepare
from repro.errors import ConfigurationError
from repro.joins import join
from repro.obs.profile import JoinProfile, validate_profile
from repro.parallel.worker import run_shard_task
from repro.planner.query import parse_query
from repro.storage.relation import Relation

TRIANGLE = parse_query("E1=E(a,b), E2=E(b,c), E3=E(c,a)")

#: every driver, plus both Generic Join engines
DRIVERS = [
    ("generic", "tuple"),
    ("generic", "batch"),
    ("binary", None),
    ("hashtrie", None),
    ("leapfrog", None),
    ("recursive", None),
]
DRIVER_IDS = ["generic-tuple", "generic-batch", "binary", "hashtrie",
              "leapfrog", "recursive"]


@pytest.fixture(scope="module")
def edges():
    rng = random.Random(3)
    rows = {(rng.randrange(40), rng.randrange(40)) for _ in range(300)}
    return Relation("E", ("src", "dst"), rows)


@pytest.fixture(scope="module")
def relations(edges):
    return {"E1": edges, "E2": edges, "E3": edges}


@pytest.fixture(scope="module")
def truth(edges):
    """Brute-force triangle count (ground truth for emitted totals)."""
    edge_set = set(tuple(row) for row in edges)
    return sum(1 for a, b in edge_set
               for c in {d for s, d in edge_set if s == b}
               if (c, a) in edge_set)


def driver_kwargs(algorithm, engine):
    kwargs = {"algorithm": algorithm}
    if engine is not None:
        kwargs["engine"] = engine
    return kwargs


def sharded(relations, kwargs):
    """The profiled ``parallel=2`` run of ``kwargs`` — or, for a tuple
    driver, its refusal and then the sharded frontier plan."""
    if kwargs["algorithm"] != "generic" or kwargs.get("engine") == "tuple":
        with pytest.raises(ConfigurationError,
                           match=r'join\(engine="tuple"\)'):
            join(TRIANGLE, relations, parallel=2, **kwargs)
        kwargs = {}
    return join(TRIANGLE, relations, profile=True, parallel=2, **kwargs)


def executed_shards(profile):
    return [shard for shard in profile.shards if shard is not None]


# ----------------------------------------------------------------------
# counter conservation: sum over shards == single process
# ----------------------------------------------------------------------
class TestCounterConservation:
    @pytest.mark.parametrize("algorithm,engine", DRIVERS, ids=DRIVER_IDS)
    def test_emitted_sums_to_single_process(self, relations, truth,
                                            algorithm, engine):
        kwargs = driver_kwargs(algorithm, engine)
        single = join(TRIANGLE, relations, profile=True, **kwargs)
        merged = sharded(relations, kwargs)
        assert single.count == truth
        assert merged.count == truth
        profile = merged.profile
        assert type(profile) is JoinProfile
        shards = executed_shards(profile)
        assert shards, "both shards empty on a 300-edge input"
        assert all(type(shard) is JoinProfile for shard in shards)
        assert sum(s.result_count for s in shards) == truth
        assert sum(s.counters["join.emitted"] for s in shards) == truth
        # parent-side parity with the single-process profile
        assert profile.counters["join.emitted"] == truth
        assert profile.result_count == single.profile.result_count

    @pytest.mark.parametrize(
        "algorithm,engine",
        [d for d in DRIVERS if d[0] not in ("recursive", "binary")],
        ids=[i for i in DRIVER_IDS if i not in ("recursive", "binary")])
    def test_survivors_sum_level_for_level(self, relations, algorithm,
                                           engine):
        kwargs = driver_kwargs(algorithm, engine)
        single = join(TRIANGLE, relations, profile=True, **kwargs)
        result = sharded(relations, kwargs)
        expected = [level.survivors for level in single.profile.levels]
        merged = [level.survivors for level in result.profile.levels]
        assert merged == expected
        # and the merged levels really are the shard sums, not a re-run
        shards = executed_shards(result.profile)
        for position, survivors in enumerate(expected):
            total = sum(shard.levels[position].survivors
                        for shard in shards
                        if position < len(shard.levels))
            assert total == survivors

    def test_binary_final_stage_is_conserved(self, relations, truth):
        # the binary pipeline does not shard; its final stage — the
        # emitted tuples — is the sharded frontier plan's final level
        single = join(TRIANGLE, relations, profile=True, algorithm="binary")
        merged = sharded(relations, {"algorithm": "binary"})
        assert single.profile.levels[-1].survivors == truth
        assert merged.profile.levels[-1].survivors == truth

    def test_sharded_profile_validates(self, relations):
        result = join(TRIANGLE, relations, profile=True, parallel=2)
        payload = result.profile.as_dict()
        assert payload["schema_version"] == 5
        assert payload["sharding"]["workers"] == 2
        validate_profile(payload)

    def test_render_names_the_straggler(self, relations):
        result = join(TRIANGLE, relations, profile=True, parallel=2)
        text = result.profile.render()
        assert "sharding: 2 workers" in text
        assert "straggler" in text


# ----------------------------------------------------------------------
# the merged render reads like its single-process twin
# ----------------------------------------------------------------------
def level_tree(profile):
    """A render's level lines, each cut to its labels, and whether it
    is the subtree-count line."""
    return [(line.split(":")[0], "counted from subtree sizes" in line)
            for line in profile.render().splitlines() if "└─" in line]


def test_sharded_star_counts_its_tail_where_single_process_does():
    rng = random.Random(5)
    relations = {
        "F": Relation("F", ("t", "x"),
                      {(rng.randrange(20), rng.randrange(50))
                       for _ in range(200)}),
        "A": Relation("A", ("t", "p", "q"),
                      {(rng.randrange(20), rng.randrange(9),
                        rng.randrange(9)) for _ in range(200)}),
    }
    star = "F(t,x), A(t,p,q)"
    single = join(star, relations, profile=True)
    merged = join(star, relations, profile=True, parallel=2)
    assert merged.count == single.count > 0
    assert single.profile.counters["frontier.tail_levels"] == 3
    assert merged.profile.counters["frontier.tail_levels"] == 3
    assert level_tree(merged.profile) == level_tree(single.profile) == [
        ("└─ t", False), ("   └─ x, p, q", True)]


# ----------------------------------------------------------------------
# merged Chrome trace: one document, K worker pid rows
# ----------------------------------------------------------------------
class TestMergedTrace:
    @pytest.fixture(scope="class")
    def trace_doc(self, relations, tmp_path_factory):
        out = tmp_path_factory.mktemp("trace") / "merged.json"
        result = join(TRIANGLE, relations, profile=True, parallel=2,
                      trace_out=str(out))
        return result, json.loads(out.read_text())

    def test_document_schema(self, trace_doc):
        _, doc = trace_doc
        assert set(doc) == {"traceEvents", "displayTimeUnit"}
        for event in doc["traceEvents"]:
            assert event["ph"] in ("X", "M")
            assert isinstance(event["pid"], int)
            if event["ph"] == "X":
                assert event["ts"] >= 0
                assert event["dur"] >= 0

    def test_exactly_k_worker_rows_with_distinct_pids(self, trace_doc):
        result, doc = trace_doc
        profile = result.profile
        names = [event["args"]["name"] for event in doc["traceEvents"]
                 if event["ph"] == "M" and event["name"] == "process_name"]
        worker_rows = [name for name in names if name.startswith("worker")]
        assert len(worker_rows) == len(executed_shards(profile)) == 2
        pids = {event["pid"] for event in doc["traceEvents"]}
        assert len(pids) == 3  # parent + 2 workers
        assert profile.pid in pids

    def test_parent_and_worker_spans_on_their_own_rows(self, trace_doc):
        result, doc = trace_doc
        parent_pid = result.profile.pid
        spans_by_pid = {}
        for event in doc["traceEvents"]:
            if event["ph"] == "X":
                spans_by_pid.setdefault(event["pid"], set()).add(event["name"])
        parent_spans = spans_by_pid[parent_pid]
        assert {"partition_shards", "shard_fanout",
                "merge_shards"} <= parent_spans
        worker_pids = set(spans_by_pid) - {parent_pid}
        assert len(worker_pids) == 2
        for pid in worker_pids:
            assert {"build_index", "probe"} <= spans_by_pid[pid]

    def test_per_shard_trace_files_sit_next_to_merged(self, relations,
                                                      tmp_path, monkeypatch):
        # the env route: every worker inherits REPRO_TRACE_OUT and must
        # suffix it per shard instead of clobbering the merged document
        out = tmp_path / "trace.json"
        monkeypatch.setenv("REPRO_TRACE_OUT", str(out))
        result = join(TRIANGLE, relations, profile=True, parallel=2)
        assert result.profile is not None
        merged = json.loads(out.read_text())
        assert {e["pid"] for e in merged["traceEvents"]
                if e["ph"] == "X"} == {
            result.profile.pid,
            *(s.pid for s in executed_shards(result.profile))}
        for position, shard in enumerate(result.profile.shards):
            if shard is None:
                continue
            shard_doc = tmp_path / f"trace.shard{position}.json"
            assert shard_doc.exists()
            json.loads(shard_doc.read_text())


# ----------------------------------------------------------------------
# worker-side env flags (the silently-disabled-obs regression)
# ----------------------------------------------------------------------
def sharded_prepared(relations, workers=2):
    bound = bind(TRIANGLE, relations)
    join_plan = plan(bound, parallel=workers)
    return prepare(bound, join_plan, cache=None)


def first_nonempty_task(prepared, with_counters=False):
    runner = prepared._runner
    for shard in range(runner.plan.sharding.workers):
        task = runner._shard_task(shard, False, with_counters)
        if task is not None:
            return task
    raise AssertionError("every shard empty")


class TestWorkerEnvFlags:
    def test_obs_off_by_default(self, relations, monkeypatch):
        monkeypatch.delenv("REPRO_PROFILE", raising=False)
        monkeypatch.delenv("REPRO_TRACE_OUT", raising=False)
        with sharded_prepared(relations) as prepared:
            response = run_shard_task(first_nonempty_task(prepared))
        assert response["ok"]
        assert "profile" not in response
        assert "clock" not in response

    def test_inherited_profile_flag_enables_obs(self, relations, monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE", "1")
        monkeypatch.delenv("REPRO_TRACE_OUT", raising=False)
        with sharded_prepared(relations) as prepared:
            response = run_shard_task(first_nonempty_task(prepared))
        assert response["ok"]
        assert response["profile"]["counters"]["join.emitted"] \
            == response["count"]
        assert response["profile"]["pid"] > 0
        assert response["profile"]["spans"], \
            "profiled worker returned no spans"
        clock = response["clock"]
        assert (clock["received_ns"] <= clock["origin_ns"]
                <= clock["responded_ns"])
        # no dispatch stamp travelled (task built by hand): it degrades
        assert clock["issued_ns"] is None

    def test_inherited_trace_out_writes_per_shard_file(self, relations,
                                                       tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_PROFILE", raising=False)
        monkeypatch.setenv("REPRO_TRACE_OUT", str(tmp_path / "trace.json"))
        with sharded_prepared(relations) as prepared:
            task = first_nonempty_task(prepared)
            response = run_shard_task(task)
        assert response["ok"]
        assert response["profile"] is not None  # trace flag implies obs
        shard_doc = tmp_path / f"trace.shard{task['shard']}.json"
        assert shard_doc.exists()
        doc = json.loads(shard_doc.read_text())
        assert any(event.get("name") == "probe"
                   for event in doc["traceEvents"])

    def test_task_request_still_wins_without_env(self, relations,
                                                 monkeypatch):
        monkeypatch.delenv("REPRO_PROFILE", raising=False)
        monkeypatch.delenv("REPRO_TRACE_OUT", raising=False)
        with sharded_prepared(relations) as prepared:
            response = run_shard_task(
                first_nonempty_task(prepared, with_counters=True))
        assert response["profile"] is not None
