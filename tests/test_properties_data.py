"""Property-based tests for the data-plumbing layers.

Covers ObservationSet mask grouping and the model registry's
publish/warm-read round-trip — the pieces whose
bugs would silently corrupt experiments rather than crash them.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.observation import ObservationSet
from repro.runtime.controller import TradeoffEstimate
from repro.service.registry import ModelRegistry


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
