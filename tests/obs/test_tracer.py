"""Span tracer: nesting, deterministic clocks, and the Chrome export."""

from repro.obs.trace import NULL_TRACER, NullTracer, Tracer


def fake_clock(ticks):
    """A clock returning successive values from ``ticks`` (nanoseconds)."""
    it = iter(ticks)
    return lambda: next(it)


class TestSpans:
    def test_nested_spans_record_depth(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        spans = tracer.as_dicts()
        assert [(s["name"], s["depth"]) for s in spans] == [
            ("outer", 0), ("inner", 1)]

    def test_deterministic_clock_durations(self):
        # origin=0; outer runs 100..500 ns, inner 200..300 ns
        tracer = Tracer(clock=fake_clock([0, 100, 200, 300, 500]))
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        outer, inner = tracer.as_dicts()
        assert (outer["ts_us"], outer["dur_us"]) == (0.1, 0.4)
        assert (inner["ts_us"], inner["dur_us"]) == (0.2, 0.1)

    def test_args_attached_verbatim(self):
        tracer = Tracer()
        with tracer.span("probe", algorithm="generic_join", engine="tuple"):
            pass
        (span,) = tracer.as_dicts()
        assert span["args"] == {"algorithm": "generic_join", "engine": "tuple"}

    def test_add_span_records_premeasured_interval(self):
        tracer = Tracer(clock=fake_clock([0]))
        tracer.add_span("build_index", 1000, 2500, alias="E1")
        (span,) = tracer.as_dicts()
        assert span["name"] == "build_index"
        assert span["dur_us"] == 2.5
        assert span["args"] == {"alias": "E1"}

    def test_spans_sorted_by_start(self):
        tracer = Tracer(clock=fake_clock([0]))
        tracer.add_span("late", 5000, 10)
        tracer.add_span("early", 1000, 10)
        assert [s["name"] for s in tracer.as_dicts()] == ["early", "late"]


class TestChromeExport:
    def test_trace_event_document_shape(self):
        tracer = Tracer(clock=fake_clock([0, 100, 500]))
        with tracer.span("probe", rows=3):
            pass
        doc = tracer.to_chrome()
        assert doc["displayTimeUnit"] == "ms"
        (event,) = doc["traceEvents"]
        assert event["ph"] == "X"
        assert event["cat"] == "repro"
        assert event["pid"] == 1 and event["tid"] == 1
        assert event["ts"] == 0.1 and event["dur"] == 0.4
        assert event["args"] == {"rows": 3}


class TestNullTracer:
    def test_disabled_flags(self):
        assert Tracer.enabled is True
        assert NullTracer.enabled is False

    def test_null_span_is_shared_and_records_nothing(self):
        first = NULL_TRACER.span("a", x=1)
        second = NULL_TRACER.span("b")
        assert first is second  # one shared no-op handle, zero allocations
        with first:
            pass
        NULL_TRACER.add_span("c", 0, 10)
        assert NULL_TRACER.as_dicts() == []
        assert NULL_TRACER.to_chrome()["traceEvents"] == []
