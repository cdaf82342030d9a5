"""Property-based tests for the data-plumbing layers.

Covers ObservationSet mask grouping, HeartbeatMonitor rate arithmetic
and the model registry's publish/warm-read round-trip — the pieces whose
bugs would silently corrupt experiments rather than crash them.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.observation import ObservationSet
from repro.runtime.controller import TradeoffEstimate
from repro.service.registry import ModelRegistry
from repro.telemetry.heartbeats import HeartbeatMonitor


class TestObservationSetProperties:
    @settings(deadline=None, max_examples=40)
    @given(st.integers(1, 8), st.integers(2, 12), st.integers(0, 10_000))
    def test_mask_groups_partition_applications(self, m, n, seed):
        rng = np.random.default_rng(seed)
        mask = rng.random((m, n)) < 0.6
        # Guarantee every row observes something.
        for i in range(m):
            if not mask[i].any():
                mask[i, int(rng.integers(n))] = True
        obs = ObservationSet(np.abs(rng.normal(5, 1, (m, n))), mask)

        seen = []
        for obs_idx, apps in obs.mask_groups():
            seen.extend(apps)
            for app in apps:
                np.testing.assert_array_equal(obs.observed_indices(app),
                                              obs_idx)
        assert sorted(seen) == list(range(m))

    @settings(deadline=None, max_examples=40)
    @given(st.integers(1, 8), st.integers(2, 12), st.integers(0, 10_000))
    def test_total_observations_equals_mask_sum(self, m, n, seed):
        rng = np.random.default_rng(seed)
        mask = rng.random((m, n)) < 0.7
        for i in range(m):
            if not mask[i].any():
                mask[i, 0] = True
        obs = ObservationSet(np.ones((m, n)), mask)
        assert obs.total_observations == int(mask.sum())


class TestHeartbeatProperties:
    @settings(deadline=None, max_examples=40)
    @given(st.lists(st.tuples(
        st.floats(min_value=0.01, max_value=10.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False)),
        min_size=2, max_size=30))
    def test_window_rate_bounded_by_peak_instantaneous(self, steps):
        """The windowed rate never exceeds the max per-step rate."""
        monitor = HeartbeatMonitor(window=10)
        t = 0.0
        peak = 0.0
        for dt, beats in steps:
            t += dt
            monitor.heartbeat(t, beats=beats)
            peak = max(peak, beats / dt)
        assert monitor.window_rate() <= peak + 1e-6

    @settings(deadline=None, max_examples=40)
    @given(st.floats(min_value=0.1, max_value=50.0, allow_nan=False),
           st.integers(3, 20))
    def test_constant_stream_recovers_rate(self, rate, count):
        monitor = HeartbeatMonitor(window=count + 1)
        for i in range(count):
            monitor.heartbeat((i + 1) / rate, beats=1.0)
        assert monitor.window_rate() == pytest.approx(rate, rel=1e-6)


class TestStoreProperties:
    @settings(deadline=None, max_examples=25)
    @given(n=st.integers(2, 50), seed=st.integers(0, 10_000),
           raw_name=st.text(alphabet="abcdefgh-_.0123456789", min_size=1,
                            max_size=20))
    def test_roundtrip_preserves_curves(self, tmp_path_factory, n, seed,
                                        raw_name):
        rng = np.random.default_rng(seed)
        registry = ModelRegistry(tmp_path_factory.mktemp("store"))
        estimate = TradeoffEstimate(
            rates=rng.uniform(0.1, 100, n),
            powers=rng.uniform(50, 400, n),
            estimator_name="leo")
        try:
            registry.publish(raw_name, estimate)
        except ValueError:
            return  # unsanitizable name: acceptable rejection
        loaded = registry.warm_estimate(raw_name, n, "leo")
        np.testing.assert_array_equal(loaded.rates, estimate.rates)
        np.testing.assert_array_equal(loaded.powers, estimate.powers)
