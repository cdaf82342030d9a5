"""Tests for repro.estimators.base."""

import numpy as np
import pytest

from repro.estimators.base import EstimationProblem, normalize_problem


def _problem(n=8, m_prior=3, obs=(1, 4), seed=0):
    rng = np.random.default_rng(seed)
    features = np.column_stack([np.arange(1, n + 1)] * 4).astype(float)
    prior = rng.uniform(1, 10, (m_prior, n))
    obs = np.array(obs)
    values = rng.uniform(1, 10, obs.size)
    return EstimationProblem(features=features, prior=prior,
                             observed_indices=obs, observed_values=values)


class TestValidation:
    def test_valid_problem(self):
        problem = _problem()
        assert problem.num_configs == 8
        assert problem.num_observations == 2
        assert problem.num_prior_applications == 3

    def test_no_prior_allowed(self):
        problem = EstimationProblem(
            features=np.ones((4, 2)), prior=None,
            observed_indices=np.array([0]), observed_values=np.array([1.0]))
        assert problem.num_prior_applications == 0

    def test_rejects_out_of_range_indices(self):
        with pytest.raises(ValueError):
            EstimationProblem(features=np.ones((4, 2)), prior=None,
                              observed_indices=np.array([4]),
                              observed_values=np.array([1.0]))

    def test_rejects_duplicate_indices(self):
        with pytest.raises(ValueError):
            EstimationProblem(features=np.ones((4, 2)), prior=None,
                              observed_indices=np.array([1, 1]),
                              observed_values=np.array([1.0, 2.0]))

    def test_rejects_misaligned_observations(self):
        with pytest.raises(ValueError):
            EstimationProblem(features=np.ones((4, 2)), prior=None,
                              observed_indices=np.array([1, 2]),
                              observed_values=np.array([1.0]))

    def test_rejects_prior_with_wrong_width(self):
        with pytest.raises(ValueError):
            EstimationProblem(features=np.ones((4, 2)),
                              prior=np.ones((2, 5)),
                              observed_indices=np.array([1]),
                              observed_values=np.array([1.0]))

    def test_rejects_1d_features(self):
        with pytest.raises(ValueError):
            EstimationProblem(features=np.ones(4), prior=None,
                              observed_indices=np.array([1]),
                              observed_values=np.array([1.0]))

    @pytest.mark.parametrize("field", ["observed_values", "prior",
                                       "features"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_nonfinite_inputs(self, field, bad):
        problem = _problem()
        arrays = {name: getattr(problem, name).copy()
                  for name in ("features", "prior", "observed_values")}
        arrays[field].flat[1] = bad
        with pytest.raises(ValueError, match="finite"):
            EstimationProblem(observed_indices=problem.observed_indices,
                              **arrays)


class TestNormalizeProblem:
    def test_scale_is_observed_mean(self):
        problem = _problem(seed=1)
        normalized, scale = normalize_problem(problem)
        assert scale == pytest.approx(problem.observed_values.mean())
        assert normalized.observed_values.mean() == pytest.approx(1.0)

    def test_prior_rows_anchored_at_observed_subset(self):
        problem = _problem(seed=2)
        normalized, _ = normalize_problem(problem)
        anchors = normalized.prior[:, problem.observed_indices].mean(axis=1)
        np.testing.assert_allclose(anchors, 1.0)

    def test_roundtrip_scaling(self):
        """estimate(normalized) * scale lives in original units."""
        problem = _problem(seed=3)
        normalized, scale = normalize_problem(problem)
        reconstructed = normalized.observed_values * scale
        np.testing.assert_allclose(reconstructed, problem.observed_values)

    def test_shape_preserving(self):
        problem = _problem(seed=4)
        normalized, _ = normalize_problem(problem)
        assert normalized.prior.shape == problem.prior.shape
        assert normalized.num_configs == problem.num_configs

    def test_none_prior_passthrough(self):
        problem = EstimationProblem(
            features=np.ones((4, 2)), prior=None,
            observed_indices=np.array([0, 1]),
            observed_values=np.array([2.0, 4.0]))
        normalized, scale = normalize_problem(problem)
        assert normalized.prior is None
        assert scale == 3.0

    def test_rejects_nonpositive_observed_mean(self):
        problem = EstimationProblem(
            features=np.ones((4, 2)), prior=None,
            observed_indices=np.array([0, 1]),
            observed_values=np.array([1.0, -3.0]))
        with pytest.raises(ValueError):
            normalize_problem(problem)
