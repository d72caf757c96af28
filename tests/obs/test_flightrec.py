"""Flight-recorder unit tests: ring semantics and crash attachment."""

import os

import pytest

from repro.errors import ExecutionError
from repro.obs.flightrec import FLIGHT_RECORDER, FlightRecorder


class TestRing:
    def test_records_in_order_with_pid_and_fields(self):
        recorder = FlightRecorder(capacity=8)
        recorder.record("pool.start", workers=2)
        recorder.record("task.send", "shard", shard=0)
        events = recorder.events()
        assert [e["category"] for e in events] == ["pool.start", "task.send"]
        assert events[0]["pid"] == os.getpid()
        assert events[0]["fields"] == {"workers": 2}
        assert events[1]["message"] == "shard"
        assert events[1]["ts_ns"] >= events[0]["ts_ns"]
        assert len(recorder) == 2
        assert recorder.dropped == 0

    def test_ring_wraps_oldest_first(self):
        recorder = FlightRecorder(capacity=4)
        for n in range(6):
            recorder.record("tick", n=n)
        assert len(recorder) == 4
        assert recorder.dropped == 2
        assert [e["fields"]["n"] for e in recorder.events()] == [2, 3, 4, 5]

    def test_clear_resets_everything(self):
        recorder = FlightRecorder(capacity=2)
        recorder.record("tick")
        recorder.record("tick")
        recorder.record("tick")
        recorder.clear()
        assert len(recorder) == 0
        assert recorder.dropped == 0
        assert recorder.events() == []

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError, match="capacity"):
            FlightRecorder(capacity=0)

    def test_enabled_is_a_class_flag(self):
        # loop call sites branch on this; it must be
        # a plain attribute, not a property doing work
        assert FlightRecorder.enabled is True
        assert FLIGHT_RECORDER.enabled is True


class TestDumpText:
    def test_empty_dump(self):
        assert FlightRecorder().dump_text() == "(flight recorder empty)"

    def test_lines_are_relative_ms_oldest_first(self):
        recorder = FlightRecorder(capacity=8)
        recorder.record("pool.start", workers=3)
        recorder.record("task.send", shard=1)
        lines = recorder.dump_text().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("+")
        assert "pool.start" in lines[0] and "workers=3" in lines[0]
        assert "task.send" in lines[1] and "shard=1" in lines[1]

    def test_wrap_header_and_limit(self):
        recorder = FlightRecorder(capacity=3)
        for n in range(5):
            recorder.record("tick", n=n)
        dump = recorder.dump_text()
        assert dump.splitlines()[0] == "(... 2 earlier events overwritten)"
        limited = recorder.dump_text(limit=1)
        assert "n=4" in limited
        assert "n=3" not in limited


class TestCrashAttachment:
    def test_execution_error_carries_flight_log(self):
        from repro.parallel import WorkerPool

        bad_task = {
            "query": "E1=E(a,b)",
            "algorithm": "generic",
            "index": "sonic",
            "engine": "tuple",
            "order": None,
            "atom_order": None,
            "dynamic_seed": True,
            "index_kwargs": {},
            "relations": {},
            "shard": 0,
            "signature": ("bad", 0),
            "materialize": False,
            "with_counters": False,
        }
        with WorkerPool(1) as pool:
            with pytest.raises(ExecutionError) as excinfo:
                pool.run([bad_task])
        flight_log = excinfo.value.flight_log
        assert isinstance(flight_log, str)
        assert "pool.error" in flight_log
        assert "task.send" in flight_log

    def test_default_attribute_is_none(self):
        assert ExecutionError("boom").flight_log is None
