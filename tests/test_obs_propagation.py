"""Tests for trace-context propagation and the span collector.

The PR-6 distributed primitives in isolation: the wire form of
:class:`TraceContext` (tolerant parsing — bad metadata must never fail
the request carrying it), deterministic trace ids, disjoint per-shard
span-id blocks, the tracer's distributed features (remote parents and
shard bases), the collector's collision repair, and the bounded
:class:`TimeSeries` the SLO layer reads.
"""

import pytest

from repro.obs import (
    Observability,
    Span,
    TimeSeries,
    TraceContext,
    Tracer,
    current_trace_context,
    merge_spans,
    new_trace_id,
    orphan_spans,
    read_shards,
    shard_span_base,
    use,
    write_trace,
)

TRACE_ID = "feedbeefcafe0123"


def _span(name, span_id, parent_id=None, start=0.0, end=1.0,
          trace_id=None):
    """A detached finished span (bypasses the tracer lifecycle)."""
    return Span(name=name, span_id=span_id, parent_id=parent_id,
                start=start, end=end, trace_id=trace_id)


class TestTraceContext:
    def test_wire_round_trip(self):
        ctx = TraceContext(trace_id=TRACE_ID, span_id=7,
                           baggage={"tenant": "kmeans"})
        assert TraceContext.from_wire(ctx.to_wire()) == ctx

    def test_minimal_wire_form_omits_optional_fields(self):
        wire = TraceContext(trace_id=TRACE_ID).to_wire()
        assert wire == {"trace_id": TRACE_ID}

    def test_from_wire_tolerates_garbage(self):
        for payload in (None, "x", 7, [], {}, {"span_id": 3},
                        {"trace_id": ""}, {"trace_id": 12}):
            assert TraceContext.from_wire(payload) is None

    def test_from_wire_coerces_span_id(self):
        ctx = TraceContext.from_wire({"trace_id": TRACE_ID,
                                      "span_id": "12"})
        assert ctx.span_id == 12

    def test_from_wire_drops_unparseable_span_id(self):
        ctx = TraceContext.from_wire({"trace_id": TRACE_ID,
                                      "span_id": "not-an-int"})
        assert ctx is not None and ctx.span_id is None

    def test_from_wire_normalizes_baggage(self):
        ctx = TraceContext.from_wire(
            {"trace_id": TRACE_ID, "baggage": {"k": 3}})
        assert ctx.baggage == {"k": "3"}
        ctx = TraceContext.from_wire(
            {"trace_id": TRACE_ID, "baggage": "nope"})
        assert ctx.baggage == {}

    def test_child_repositions_within_same_trace(self):
        ctx = TraceContext(trace_id=TRACE_ID, span_id=1,
                           baggage={"a": "b"})
        child = ctx.child(9)
        assert child.trace_id == TRACE_ID
        assert child.span_id == 9
        assert child.baggage == {"a": "b"}


class TestNewTraceId:
    def test_seeded_ids_are_deterministic(self):
        assert new_trace_id(seed=42) == new_trace_id(seed=42)
        assert new_trace_id(seed=42) != new_trace_id(seed=43)

    def test_shape(self):
        for tid in (new_trace_id(), new_trace_id(seed="x")):
            assert len(tid) == 16
            int(tid, 16)  # valid hex

    def test_entropy_ids_differ(self):
        assert new_trace_id() != new_trace_id()


class TestShardSpanBase:
    def test_blocks_sit_above_local_id_range(self):
        base = shard_span_base(TRACE_ID, "chunk-0")
        assert base >= 2 ** 32
        assert base % 2 ** 32 == 0

    def test_deterministic_per_trace_and_shard(self):
        assert (shard_span_base(TRACE_ID, "chunk-0")
                == shard_span_base(TRACE_ID, "chunk-0"))

    def test_distinct_shards_get_distinct_blocks(self):
        shards = [f"chunk-{i}" for i in range(32)]
        shards += [f"server-req-{i}" for i in range(32)]
        bases = {shard_span_base(TRACE_ID, s) for s in shards}
        assert len(bases) == len(shards)

    def test_distinct_traces_get_distinct_blocks(self):
        assert (shard_span_base(TRACE_ID, "chunk-0")
                != shard_span_base("0" * 16, "chunk-0"))


class TestCurrentTraceContext:
    def test_none_when_disabled(self):
        assert current_trace_context() is None

    def test_none_for_trace_id_less_tracer(self):
        with use(Observability(tracer=Tracer())):
            assert current_trace_context() is None

    def test_snapshots_innermost_open_span(self):
        ob = Observability.recording(trace_id=TRACE_ID)
        with use(ob):
            with ob.tracer.span("outer"):
                with ob.tracer.span("inner") as inner:
                    ctx = current_trace_context()
                    assert ctx.trace_id == TRACE_ID
                    assert ctx.span_id == inner.span_id

    def test_no_open_span_propagates_none_parent(self):
        ob = Observability.recording(trace_id=TRACE_ID)
        with use(ob):
            ctx = current_trace_context()
        assert ctx.span_id is None


class TestTracerDistributed:
    def test_remote_parent_adopted_by_root_spans(self):
        base = shard_span_base(TRACE_ID, "chunk-0")
        tracer = Tracer(trace_id=TRACE_ID, remote_parent=99,
                        span_id_base=base)
        with tracer.span("shard.root"):
            with tracer.span("shard.child"):
                pass
        root = next(s for s in tracer.spans if s.name == "shard.root")
        child = next(s for s in tracer.spans if s.name == "shard.child")
        assert root.parent_id == 99
        assert root.span_id == base + 1
        assert child.parent_id == root.span_id

    def test_current_span_id_falls_back_to_remote_parent(self):
        tracer = Tracer(trace_id=TRACE_ID, remote_parent=42)
        assert tracer.current_span_id == 42

    def test_spans_stamped_with_trace_id(self):
        tracer = Tracer(trace_id=TRACE_ID)
        with tracer.span("a"):
            pass
        span = tracer.spans[0]
        assert span.trace_id == TRACE_ID
        assert span.to_dict()["trace_id"] == TRACE_ID

    def test_local_tracer_keeps_pr1_wire_shape(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        assert "trace_id" not in tracer.spans[0].to_dict()


class TestMergeSpans:
    def test_disjoint_shards_pass_through(self):
        a = [_span("a", 1), _span("b", 2, parent_id=1)]
        b = [_span("c", 2 ** 32 + 1, parent_id=1)]
        merged = merge_spans(a, b)
        assert {s.span_id for s in merged} == {1, 2, 2 ** 32 + 1}
        assert orphan_spans(merged) == []

    def test_collision_remaps_later_shard(self):
        a = [_span("a1", 1), _span("a2", 2, parent_id=1)]
        b = [_span("b1", 1), _span("b2", 2, parent_id=1)]
        merged = merge_spans(a, b)
        ids = [s.span_id for s in merged]
        assert len(set(ids)) == 4, "collisions must be remapped"
        b1 = next(s for s in merged if s.name == "b1")
        b2 = next(s for s in merged if s.name == "b2")
        # The in-shard parent reference follows the remap.
        assert b2.parent_id == b1.span_id
        assert orphan_spans(merged) == []

    def test_cross_shard_parent_reference_is_not_remapped(self):
        # Shard b parents under shard a's span 5; 5 never collides, so
        # the edge must survive merging untouched.
        a = [_span("root", 5)]
        b = [_span("remote", 2 ** 32 + 1, parent_id=5)]
        merged = merge_spans(a, b)
        remote = next(s for s in merged if s.name == "remote")
        assert remote.parent_id == 5
        assert orphan_spans(merged) == []

    def test_within_shard_duplicates_kept_verbatim(self):
        shard = [_span("dup", 1), _span("dup", 1)]
        merged = merge_spans(shard)
        assert [s.span_id for s in merged] == [1, 1]

    def test_argument_order_decides_who_keeps_their_ids(self):
        a = [_span("first", 1)]
        b = [_span("second", 1)]
        merged = merge_spans(a, b)
        assert next(s for s in merged if s.name == "first").span_id == 1
        assert next(s for s in merged if s.name == "second").span_id != 1

    def test_read_shards_merges_jsonl_files(self, tmp_path):
        one = write_trace(tmp_path / "one.jsonl",
                          [_span("root", 1, trace_id=TRACE_ID)])
        two = write_trace(
            tmp_path / "two.jsonl",
            [_span("leaf", 2 ** 32 + 1, parent_id=1, trace_id=TRACE_ID)])
        merged = read_shards([one, two])
        assert [s.name for s in merged] == ["root", "leaf"]
        assert orphan_spans(merged) == []


class TestOrphanSpans:
    def test_detects_missing_parent(self):
        spans = [_span("root", 1), _span("lost", 7, parent_id=99)]
        assert [s.name for s in orphan_spans(spans)] == ["lost"]

    def test_resolved_by_merging_the_missing_shard(self):
        shard = [_span("lost", 7, parent_id=99)]
        assert orphan_spans(shard)
        merged = merge_spans([_span("found", 99)], shard)
        assert orphan_spans(merged) == []

    def test_roots_are_never_orphans(self):
        assert orphan_spans([_span("root", 1)]) == []


class TestTimeSeries:
    def test_append_and_read_in_order(self):
        series = TimeSeries(capacity=8)
        for t in range(5):
            series.append(float(t), float(t * 10))
        assert len(series) == 5
        assert list(series) == [(float(t), float(t * 10))
                                for t in range(5)]
        assert series.last_time == 4.0
        assert series.last_value == 40.0

    def test_eviction_keeps_newest(self):
        series = TimeSeries(capacity=3)
        for t in range(10):
            series.append(float(t), float(t))
        assert len(series) == 3
        assert [t for t, _ in series] == [7.0, 8.0, 9.0]

    def test_backwards_timestamp_rejected(self):
        series = TimeSeries()
        series.append(5.0, 1.0)
        with pytest.raises(ValueError, match="precedes"):
            series.append(4.0, 1.0)
        series.append(5.0, 2.0)  # equal timestamps are fine

    def test_empty_reads_raise(self):
        series = TimeSeries()
        with pytest.raises(ValueError):
            series.last_time
        with pytest.raises(ValueError):
            series.last_value

    def test_window_defaults_to_newest_timestamp(self):
        series = TimeSeries()
        for t in (0.0, 10.0, 19.0, 20.0):
            series.append(t, t)
        assert series.values(5.0) == [19.0, 20.0]
        assert series.values(None) == [0.0, 10.0, 19.0, 20.0]
        assert series.values(5.0, now=100.0) == []

    def test_capacity_validated(self):
        with pytest.raises(ValueError, match="capacity"):
            TimeSeries(capacity=0)
