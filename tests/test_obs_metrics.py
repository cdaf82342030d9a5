"""Tests for repro.obs metrics: instruments, snapshot math, export."""

import json
import math

import pytest

from repro.obs import (
    NULL_METRICS,
    Histogram,
    MetricsRegistry,
    start_timer,
    stop_timer,
    use,
    Observability,
)


class TestCounter:
    def test_accumulates(self):
        reg = MetricsRegistry()
        reg.inc("hits")
        reg.inc("hits", 2.5)
        assert reg.snapshot()["counters"]["hits"] == pytest.approx(3.5)

    def test_rejects_negative(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.inc("hits", -1.0)

    def test_value_stays_plain_float(self):
        np = pytest.importorskip("numpy")
        reg = MetricsRegistry()
        reg.inc("joules", np.float64(2.0))
        value = reg.snapshot()["counters"]["joules"]
        assert type(value) is float


class TestGauge:
    def test_last_write_wins(self):
        reg = MetricsRegistry()
        reg.set_gauge("ratio", 0.5)
        reg.set_gauge("ratio", 0.25)
        assert reg.snapshot()["gauges"]["ratio"] == pytest.approx(0.25)

    def test_unset_gauge_absent_from_snapshot(self):
        assert MetricsRegistry().snapshot()["gauges"] == {}


class TestHistogramPercentiles:
    def test_nearest_rank_on_known_data(self):
        h = Histogram("t")
        for v in range(1, 101):  # 1..100
            h.observe(float(v))
        assert h.percentile(50) == 50.0
        assert h.percentile(90) == 90.0
        assert h.percentile(99) == 99.0
        assert h.percentile(100) == 100.0
        assert h.percentile(0) == 1.0

    def test_small_sample_percentiles(self):
        h = Histogram("t")
        for v in (3.0, 1.0, 2.0):
            h.observe(v)
        assert h.percentile(50) == 2.0
        assert h.percentile(99) == 3.0

    def test_summary_fields(self):
        h = Histogram("t")
        for v in (1.0, 2.0, 3.0, 4.0):
            h.observe(v)
        summary = h.summary()
        assert summary["count"] == 4
        assert summary["sum"] == pytest.approx(10.0)
        assert summary["min"] == 1.0
        assert summary["max"] == 4.0
        assert summary["mean"] == pytest.approx(2.5)
        assert summary["p50"] == 2.0

    def test_empty_histogram_is_nan(self):
        h = Histogram("t")
        assert math.isnan(h.mean)
        assert math.isnan(h.percentile(50))

    def test_percentile_range_validated(self):
        h = Histogram("t")
        with pytest.raises(ValueError):
            h.percentile(101)


class TestRegistry:
    def test_name_collision_across_kinds(self):
        reg = MetricsRegistry()
        reg.inc("x")
        with pytest.raises(ValueError):
            reg.observe("x", 1.0)
        with pytest.raises(ValueError):
            reg.set_gauge("x", 1.0)

    def test_snapshot_shape_and_sorting(self):
        reg = MetricsRegistry()
        reg.inc("b")
        reg.inc("a")
        reg.observe("lat", 1.0)
        snap = reg.snapshot()
        assert set(snap) == {"counters", "gauges", "histograms"}
        assert list(snap["counters"]) == ["a", "b"]
        assert set(snap["histograms"]["lat"]) == {
            "count", "sum", "min", "max", "mean", "p50", "p90", "p99"}

    def test_write_json_round_trips(self, tmp_path):
        reg = MetricsRegistry()
        reg.inc("em_iterations_total", 7)
        reg.observe("fit_seconds", 0.25)
        path = reg.write_json(tmp_path / "metrics.json")
        loaded = json.loads(path.read_text())
        assert loaded["counters"]["em_iterations_total"] == 7.0
        assert loaded["histograms"]["fit_seconds"]["count"] == 1

    def test_clear_empties_everything(self):
        reg = MetricsRegistry()
        reg.inc("a")
        reg.clear()
        assert reg.snapshot() == {"counters": {}, "gauges": {},
                                  "histograms": {}}

    def test_null_registry_is_inert(self):
        NULL_METRICS.inc("a")
        NULL_METRICS.set_gauge("b", 1.0)
        NULL_METRICS.observe("c", 1.0)
        assert NULL_METRICS.snapshot() == {"counters": {}, "gauges": {},
                                           "histograms": {}}


class TestProfilingHooks:
    def test_start_stop_pair(self):
        ob = Observability.recording()
        with use(ob):
            started = start_timer()
            assert started is not None
            stop_timer("pair_seconds", started)
        summary = ob.metrics.snapshot()["histograms"]["pair_seconds"]
        assert summary["count"] == 1
        assert summary["min"] >= 0.0

    def test_disabled_pair_is_free(self):
        started = start_timer()
        assert started is None
        stop_timer("ignored", started)  # must not raise or record
