"""Tests for repro.core.accuracy: the Eq. (5) metric and friends."""

import numpy as np
import pytest

from repro.core.accuracy import accuracy, mape


class TestAccuracy:
    def test_perfect_estimate_scores_one(self):
        y = np.array([1.0, 2.0, 3.0])
        assert accuracy(y, y) == 1.0

    def test_mean_estimate_scores_zero(self):
        y = np.array([1.0, 2.0, 3.0])
        assert accuracy(np.full(3, y.mean()), y) == 0.0

    def test_worse_than_mean_clipped_to_zero(self):
        """Eq. (5) has an explicit max(..., 0)."""
        y = np.array([1.0, 2.0, 3.0])
        awful = np.array([100.0, -50.0, 7.0])
        assert accuracy(awful, y) == 0.0

    def test_matches_r_squared_when_positive(self):
        rng = np.random.default_rng(0)
        y = rng.uniform(1, 10, 50)
        y_hat = y + rng.normal(0, 0.5, 50)
        sse = np.sum((y_hat - y) ** 2)
        sst = np.sum((y - y.mean()) ** 2)
        assert accuracy(y_hat, y) == pytest.approx(1 - sse / sst)

    def test_scale_invariance_of_pairs(self):
        """Scaling estimate and truth together leaves accuracy unchanged."""
        rng = np.random.default_rng(1)
        y = rng.uniform(1, 10, 30)
        y_hat = y * rng.uniform(0.9, 1.1, 30)
        assert accuracy(y_hat, y) == pytest.approx(
            accuracy(1000 * y_hat, 1000 * y))

    def test_constant_truth_edge_case(self):
        y = np.full(4, 5.0)
        assert accuracy(y, y) == 1.0
        assert accuracy(y + 0.1, y) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            accuracy([1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            accuracy([], [])
        with pytest.raises(ValueError):
            accuracy([np.nan], [1.0])


class TestCompanionMetrics:
    def test_mape(self):
        assert mape([110.0, 90.0], [100.0, 100.0]) == pytest.approx(0.1)

    def test_mape_rejects_zero_truth(self):
        with pytest.raises(ValueError):
            mape([1.0], [0.0])
