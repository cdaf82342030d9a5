"""Tests for the offline and online estimators."""

import numpy as np
import pytest

from repro.estimators.base import EstimationProblem, InsufficientSamplesError
from repro.estimators.offline import OfflineEstimator
from repro.estimators.online import (
    OnlineEstimator,
    design_matrix,
    monomial_exponents,
)


def _features(n=32, knobs=4, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(1, 16, (n, knobs))


class TestOfflineEstimator:
    def test_returns_prior_mean(self):
        prior = np.array([[1.0, 2.0], [3.0, 4.0]])
        problem = EstimationProblem(
            features=np.ones((2, 1)), prior=prior,
            observed_indices=np.array([0]), observed_values=np.array([9.0]))
        estimate = OfflineEstimator().estimate(problem)
        np.testing.assert_allclose(estimate, [2.0, 3.0])

    def test_ignores_observations(self):
        prior = np.ones((3, 4))
        base = dict(features=np.ones((4, 1)), prior=prior)
        a = EstimationProblem(observed_indices=np.array([0]),
                              observed_values=np.array([100.0]), **base)
        b = EstimationProblem(observed_indices=np.array([2]),
                              observed_values=np.array([-5.0]), **base)
        np.testing.assert_allclose(OfflineEstimator().estimate(a),
                                   OfflineEstimator().estimate(b))

    def test_requires_prior(self):
        problem = EstimationProblem(
            features=np.ones((2, 1)), prior=None,
            observed_indices=np.array([0]), observed_values=np.array([1.0]))
        with pytest.raises(ValueError):
            OfflineEstimator().estimate(problem)


class TestMonomialBasis:
    def test_quadratic_in_four_knobs_has_15_terms(self):
        """The Figure 12 threshold: 1 + 4 + 10 = 15 coefficients."""
        assert len(monomial_exponents(4, 2)) == 15

    def test_constant_first(self):
        exps = monomial_exponents(3, 2)
        assert exps[0] == (0, 0, 0)

    def test_counts_follow_stars_and_bars(self):
        # C(d + k, k) monomials of degree <= k in d variables.
        from math import comb
        for d, k in [(2, 2), (3, 3), (4, 2), (1, 5)]:
            assert len(monomial_exponents(d, k)) == comb(d + k, k)

    def test_design_matrix_shape(self):
        features = _features(n=10, knobs=3)
        design = design_matrix(features, 2)
        assert design.shape == (10, len(monomial_exponents(3, 2)))

    def test_design_matrix_constant_column(self):
        design = design_matrix(_features(n=5), 2)
        np.testing.assert_allclose(design[:, 0], 1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            monomial_exponents(0, 2)
        with pytest.raises(ValueError):
            monomial_exponents(2, -1)


class TestOnlineEstimator:
    def test_recovers_exact_quadratic(self):
        """A quadratic ground truth is fit exactly from enough samples."""
        rng = np.random.default_rng(3)
        features = _features(n=40, knobs=2, seed=3)
        truth = (2.0 + 0.5 * features[:, 0] - 0.1 * features[:, 1]
                 + 0.03 * features[:, 0] * features[:, 1]
                 + 0.02 * features[:, 1] ** 2)
        idx = rng.choice(40, size=10, replace=False)
        problem = EstimationProblem(features=features, prior=None,
                                    observed_indices=np.sort(idx),
                                    observed_values=truth[np.sort(idx)])
        estimate = OnlineEstimator(degree=2).estimate(problem)
        np.testing.assert_allclose(estimate, truth, rtol=1e-6, atol=1e-8)

    def test_raises_below_coefficient_count(self):
        """Figure 12: rank-deficient below 15 samples on 4 knobs."""
        features = _features(n=32, knobs=4)
        problem = EstimationProblem(
            features=features, prior=None,
            observed_indices=np.arange(14),
            observed_values=np.ones(14))
        with pytest.raises(InsufficientSamplesError):
            OnlineEstimator(degree=2).estimate(problem)

    def test_exactly_15_samples_succeeds(self):
        features = _features(n=32, knobs=4)
        problem = EstimationProblem(
            features=features, prior=None,
            observed_indices=np.arange(15),
            observed_values=np.linspace(1, 2, 15))
        estimate = OnlineEstimator(degree=2).estimate(problem)
        assert estimate.shape == (32,)

    def test_constant_knobs_are_dropped(self):
        """Cores-only spaces have fixed speed/memory knobs (Section 2)."""
        n = 32
        cores = np.arange(1, n + 1, dtype=float)
        features = np.column_stack([
            cores, cores, np.full(n, 2.0), np.full(n, 14.0)])
        problem = EstimationProblem(
            features=features, prior=None,
            observed_indices=np.array([4, 9, 14, 19, 24, 29]),
            observed_values=np.array([5.0, 9.0, 12.0, 11.0, 9.0, 6.0]))
        estimate = OnlineEstimator(degree=2).estimate(problem)
        assert estimate.shape == (n,)

    def test_predictions_floored_positive(self):
        """Extrapolation must not produce negative rates."""
        n = 20
        features = np.column_stack([np.arange(1, n + 1, dtype=float)])
        downhill = np.linspace(10, 1, 6)
        problem = EstimationProblem(
            features=features, prior=None,
            observed_indices=np.arange(6),
            observed_values=downhill)
        estimate = OnlineEstimator(degree=2).estimate(problem)
        assert (estimate > 0).all()

    def test_ignores_prior_data(self):
        features = _features(n=20, knobs=2, seed=5)
        kwargs = dict(features=features,
                      observed_indices=np.arange(8),
                      observed_values=np.linspace(1, 3, 8))
        with_prior = EstimationProblem(prior=np.ones((3, 20)), **kwargs)
        without = EstimationProblem(prior=None, **kwargs)
        np.testing.assert_allclose(
            OnlineEstimator().estimate(with_prior),
            OnlineEstimator().estimate(without))

    def test_validation(self):
        with pytest.raises(ValueError):
            OnlineEstimator(degree=0)
        with pytest.raises(ValueError):
            OnlineEstimator(clip_floor=-1.0)

