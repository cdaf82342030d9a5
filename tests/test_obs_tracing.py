"""Tests for repro.obs tracing: spans, nesting, persistence, null path."""

import numpy as np
import pytest

from repro.obs import (
    NULL_OBSERVABILITY,
    NULL_SPAN,
    NULL_TRACER,
    Observability,
    Span,
    Tracer,
    get_observability,
    get_tracer,
    read_trace,
    use,
    write_trace,
)


class TestSpanLifecycle:
    def test_span_records_duration(self):
        tracer = Tracer()
        with tracer.span("work") as span:
            pass
        assert span.end is not None
        assert span.duration >= 0.0

    def test_attributes_from_kwargs_and_setter(self):
        tracer = Tracer()
        with tracer.span("work", a=1) as span:
            span.set_attribute("b", "two")
        assert span.attributes == {"a": 1, "b": "two"}

    def test_exception_marks_error_and_propagates(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("bad"):
                raise RuntimeError("boom")
        (span,) = tracer.spans
        assert span.attributes["error"] == "RuntimeError"
        assert span.end is not None


class TestNesting:
    def test_children_point_at_parent(self):
        tracer = Tracer()
        with tracer.span("parent") as parent:
            with tracer.span("child") as child:
                with tracer.span("grandchild") as grandchild:
                    pass
        assert parent.parent_id is None
        assert child.parent_id == parent.span_id
        assert grandchild.parent_id == child.span_id

    def test_siblings_share_parent(self):
        tracer = Tracer()
        with tracer.span("parent") as parent:
            with tracer.span("first") as first:
                pass
            with tracer.span("second") as second:
                pass
        assert first.parent_id == parent.span_id
        assert second.parent_id == parent.span_id

    def test_spans_ordered_by_start(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        with tracer.span("c"):
            pass
        assert [s.name for s in tracer.spans] == ["a", "b", "c"]

    def test_finished_since_returns_the_tail(self):
        tracer = Tracer()
        with tracer.span("before"):
            pass
        mark = tracer.num_finished
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        tail = tracer.finished_since(mark)
        assert sorted(s.name for s in tail) == ["inner", "outer"]


class TestJsonlRoundTrip:
    def test_round_trip_preserves_spans(self, tmp_path):
        tracer = Tracer()
        with tracer.span("outer", n=3):
            with tracer.span("inner", label="x"):
                pass
        path = tmp_path / "trace.jsonl"
        write_trace(path, tracer.spans)
        loaded = read_trace(path)
        assert len(loaded) == 2
        by_name = {s.name: s for s in loaded}
        assert by_name["outer"].attributes == {"n": 3}
        assert by_name["inner"].parent_id == by_name["outer"].span_id
        assert by_name["inner"].duration == pytest.approx(
            next(s for s in tracer.spans if s.name == "inner").duration)

    def test_numpy_attributes_round_trip(self, tmp_path):
        tracer = Tracer()
        with tracer.span("fit", curve=np.arange(3.0),
                         loglik=np.float64(-1.5)):
            pass
        path = tmp_path / "trace.jsonl"
        write_trace(path, tracer.spans)
        (loaded,) = read_trace(path)
        assert loaded.attributes == {"curve": [0.0, 1.0, 2.0],
                                     "loglik": -1.5}
        assert isinstance(loaded.attributes["loglik"], float)

    def test_read_trace_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        with pytest.raises(ValueError):
            read_trace(path)


class TestNullPath:
    def test_ambient_default_is_disabled(self):
        ob = get_observability()
        assert ob is NULL_OBSERVABILITY
        assert not ob.enabled
        assert not ob.tracer.is_recording

    def test_null_tracer_returns_the_null_span_singleton(self):
        span = NULL_TRACER.span("anything", k=1)
        assert span is NULL_SPAN
        with span as entered:
            entered.set_attribute("ignored", True)
        assert span.attributes == {}

    def test_use_installs_and_restores(self):
        ob = Observability.recording()
        with use(ob):
            assert get_observability() is ob
            assert get_tracer() is ob.tracer
        assert get_observability() is NULL_OBSERVABILITY

    def test_use_none_keeps_current(self):
        ob = Observability.recording()
        with use(ob):
            with use(None):
                assert get_observability() is ob

    def test_nested_use_restores_outer(self):
        outer, inner = Observability.recording(), Observability.recording()
        with use(outer):
            with use(inner):
                assert get_observability() is inner
            assert get_observability() is outer


class TestZeroOverheadPath:
    def test_instrumented_code_makes_no_spans_by_default(self):
        import numpy as np
        from repro.core.em import EMEngine
        from repro.core.observation import ObservationSet

        rng = np.random.default_rng(0)
        values = rng.normal(size=(6, 4)) + 10.0
        mask = np.ones_like(values, dtype=bool)
        mask[-1, 2:] = False
        engine = EMEngine()
        result = engine.fit(ObservationSet(values=values, mask=mask))
        assert result.iterations >= 1
        # Nothing recorded anywhere: the ambient context is the null one.
        assert get_observability() is NULL_OBSERVABILITY
        assert get_observability().metrics.snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {}}

    def test_start_timer_is_none_when_disabled(self):
        from repro.obs import start_timer
        assert start_timer() is None
