"""Unit tests for the cross-process trace plumbing.

Calibration math, span rebasing, the wire form of a
:class:`TraceContext`, the shard-statistics helpers, and the
``sharding`` arm of the profile schema validator — which checks every
shard entry as a profile of its own.
"""

import pytest

from repro.obs.distributed import (
    TraceContext,
    calibrate_clock_offset,
    rebase_spans,
)
from repro.obs.profile import (
    JoinProfile,
    ProfileSchemaError,
    shard_distribution,
    straggler_ratio,
    validate_profile,
)


class TestTraceContext:
    def test_create_and_wire_roundtrip(self):
        context = TraceContext.create(parent_span="shard_fanout")
        assert len(context.trace_id) == 16
        int(context.trace_id, 16)  # hex
        assert context.issued_ns > 0
        wire = context.to_wire()
        assert wire == {"trace_id": context.trace_id,
                        "parent_span": "shard_fanout",
                        "issued_ns": context.issued_ns}
        assert TraceContext.from_wire(wire) == context

    def test_from_wire_tolerates_missing(self):
        assert TraceContext.from_wire(None) is None
        assert TraceContext.from_wire({}) is None

    def test_each_context_gets_its_own_id(self):
        ids = {TraceContext.create().trace_id for _ in range(8)}
        assert len(ids) == 8


class TestCalibration:
    def test_aligned_clocks_symmetric_transport(self):
        # parent sends at 0, worker receives at 10 (10ns transit), works
        # until 20, parent collects at 30: same clock, offset 0
        assert calibrate_clock_offset(0, 10, 20, 30) == 0

    def test_worker_clock_ahead_is_negative_offset(self):
        # worker clock runs 1000ns ahead of the parent's; transit 10ns
        # each way: offset recovers parent - worker = -1000 exactly
        assert calibrate_clock_offset(0, 1010, 1020, 30) == -1000

    def test_worker_clock_behind_is_positive_offset(self):
        assert calibrate_clock_offset(5000, 4010, 4020, 5030) == 1000

    def test_any_missing_stamp_degrades_to_zero(self):
        assert calibrate_clock_offset(None, 10, 20, 30) == 0
        assert calibrate_clock_offset(0, None, 20, 30) == 0
        assert calibrate_clock_offset(0, 10, None, 30) == 0
        assert calibrate_clock_offset(0, 10, 20, None) == 0


class TestRebaseSpans:
    def test_rebase_onto_parent_origin(self):
        # a worker span 4 µs after its tracer's origin; worker origin
        # 5 µs after the parent's once the clock offset is applied
        spans = [{"name": "probe", "ts_us": 4.0, "dur_us": 2.0,
                  "depth": 1, "args": {"rows": 3}}]
        assert rebase_spans(spans, shift_ns=5_000) == [
            {"name": "probe", "ts_us": 9.0, "dur_us": 2.0, "depth": 1,
             "args": {"rows": 3}}]

    def test_preserves_order_and_copies_args(self):
        args = {"k": 1}
        spans = [{"name": "a", "ts_us": 0.0, "dur_us": 0.01, "depth": 0,
                  "args": args},
                 {"name": "b", "ts_us": 0.1, "dur_us": 0.01, "depth": 1,
                  "args": args}]
        rebased = rebase_spans(spans, shift_ns=0)
        assert [s["name"] for s in rebased] == ["a", "b"]
        rebased[0]["args"]["k"] = 2
        rebased[1]["ts_us"] = 7.0
        assert args["k"] == 1
        assert spans[1]["ts_us"] == 0.1


class TestShardStats:
    def test_distribution(self):
        assert shard_distribution([3.0, 1.0, 2.0]) == {
            "min": 1.0, "median": 2.0, "max": 3.0, "total": 6.0}
        assert shard_distribution([]) == {
            "min": 0, "median": 0, "max": 0, "total": 0}

    def test_straggler_ratio(self):
        assert straggler_ratio([1.0, 1.0, 4.0]) == 4.0
        assert straggler_ratio([2.0, 2.0]) == 1.0
        assert straggler_ratio([]) == 1.0
        assert straggler_ratio([0.0, 0.0]) == 1.0  # zero median guard


def first_shard(sharding: dict) -> dict:
    """The first executed shard's profile payload."""
    return next(shard for shard in sharding["shards"] if shard is not None)


class TestShardingSchema:
    @pytest.fixture()
    def payload(self):
        # minimal-but-real: produced by an actual tiny sharded run
        from repro.joins import join
        from repro.planner.query import parse_query
        from repro.storage.relation import Relation

        edges = Relation("E", ("src", "dst"),
                         [(a, (a + 1) % 5) for a in range(5)] + [(1, 0)])
        query = parse_query("E1=E(a,b), E2=E(b,c), E3=E(c,a)")
        result = join(query, {"E1": edges, "E2": edges, "E3": edges},
                      profile=True, parallel=2)
        return result.profile.as_dict()

    def test_real_payload_validates(self, payload):
        validate_profile(payload)

    @pytest.mark.parametrize("mutate,match", [
        (lambda s: s.update(workers=0), "workers"),
        (lambda s: s.update(shards=[]), "shards"),
        (lambda s: s.update(attribute=7), "attribute"),
        (lambda s: first_shard(s).pop("result_count"), "count"),
        (lambda s: first_shard(s)["levels"][0].update(survivors=-1),
         "survivors"),
        (lambda s: first_shard(s).pop("pid"), "pid"),
    ])
    def test_tampered_sharding_is_rejected(self, payload, mutate, match):
        mutate(payload["sharding"])
        with pytest.raises(ProfileSchemaError, match=match):
            validate_profile(payload)

    def test_a_nested_shard_names_its_position(self, payload):
        position, shard = next((k, s) for k, s
                               in enumerate(payload["sharding"]["shards"])
                               if s is not None)
        shard["levels"][0]["survivors"] = -1
        with pytest.raises(ProfileSchemaError,
                           match=rf"^sharding\.shards\[{position}\]"
                                 r"\.levels\[0\]\.survivors"):
            validate_profile(payload)

    def test_sharding_is_optional(self, payload):
        payload.pop("sharding")
        validate_profile(payload)


class TestRevive:
    """Every shard reaches the parent as ``as_dict()`` and is revived by
    ``JoinProfile.from_dict``: the round trip must lose nothing."""

    @staticmethod
    def profiled(**kwargs):
        from repro.joins import join
        from repro.storage.relation import Relation

        edges = Relation("E", ("src", "dst"),
                         [(a, (a + 1) % 7) for a in range(7)]
                         + [(1, 0), (3, 1), (0, 3)])
        return join("E1=E(a,b), E2=E(b,c), E3=E(c,a)",
                    {"E1": edges, "E2": edges, "E3": edges},
                    profile=True, **kwargs).profile

    def test_single_process_round_trip(self):
        payload = self.profiled().as_dict()
        assert payload["sharding"] is None
        assert JoinProfile.from_dict(payload).as_dict() == payload

    def test_sharded_round_trip(self):
        profile = self.profiled(parallel=2)
        payload = profile.as_dict()
        revived = JoinProfile.from_dict(payload)
        assert revived.as_dict() == payload
        assert revived.render() == profile.render()
        assert any(isinstance(shard, JoinProfile)
                   for shard in revived.shards)
