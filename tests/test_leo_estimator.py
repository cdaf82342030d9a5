"""Tests for repro.estimators.leo: the LEO estimator itself."""

import numpy as np
import pytest

from repro.core.accuracy import accuracy
from repro.core.em import EMConfig
from repro.estimators.base import EstimationProblem, normalize_problem
from repro.estimators.leo import LEOEstimator


def _leave_one_out_problem(dataset, space, name, indices, values):
    view = dataset.leave_one_out(name)
    return EstimationProblem(
        features=space.feature_matrix(), prior=view.prior_rates,
        observed_indices=indices, observed_values=values), view


class TestBasics:
    def test_requires_prior(self):
        problem = EstimationProblem(
            features=np.ones((4, 2)), prior=None,
            observed_indices=np.array([0]), observed_values=np.array([1.0]))
        with pytest.raises(ValueError):
            LEOEstimator().estimate(problem)

    def test_rejects_bad_init(self):
        with pytest.raises(ValueError):
            LEOEstimator(init="sideways")

    def test_estimate_shape(self, cores_dataset, cores_space):
        indices = np.array([4, 9, 14, 19, 24, 29])
        view = cores_dataset.leave_one_out("kmeans")
        values = view.true_rates[indices]
        problem, _ = _leave_one_out_problem(
            cores_dataset, cores_space, "kmeans", indices, values)
        estimate = LEOEstimator().estimate(problem)
        assert estimate.shape == (32,)

    def test_last_fit_introspection(self, cores_dataset, cores_space):
        indices = np.array([0, 10, 20, 30])
        view = cores_dataset.leave_one_out("swish")
        values = view.true_rates[indices]
        problem, _ = _leave_one_out_problem(
            cores_dataset, cores_space, "swish", indices, values)
        estimator = LEOEstimator()
        with pytest.raises(RuntimeError):
            _ = estimator.iterations
        estimator.estimate(problem)
        assert estimator.iterations >= 1
        assert estimator.last_fit is not None


class TestPaperBehaviours:
    def test_finds_kmeans_early_peak(self, cores_dataset, cores_truth,
                                     cores_space):
        """Section 2: LEO places the peak near 8 cores from 6 samples."""
        indices = np.array([4, 9, 14, 19, 24, 29])
        truth = cores_truth.leave_one_out("kmeans").true_rates
        problem, _ = _leave_one_out_problem(
            cores_dataset, cores_space, "kmeans", indices, truth[indices])
        normalized, scale = normalize_problem(problem)
        estimate = LEOEstimator().estimate(normalized) * scale
        assert abs(int(np.argmax(estimate)) - int(np.argmax(truth))) <= 3

    def test_beats_offline_on_unusual_app(self, cores_dataset, cores_truth,
                                          cores_space):
        from repro.estimators.offline import OfflineEstimator
        indices = np.array([4, 9, 14, 19, 24, 29])
        truth = cores_truth.leave_one_out("kmeans").true_rates
        problem, _ = _leave_one_out_problem(
            cores_dataset, cores_space, "kmeans", indices, truth[indices])
        normalized, scale = normalize_problem(problem)
        leo = LEOEstimator().estimate(normalized) * scale
        offline = OfflineEstimator().estimate(normalized) * scale
        assert accuracy(leo, truth) > accuracy(offline, truth) + 0.2

    def test_high_accuracy_with_sparse_samples(self, cores_dataset,
                                               cores_truth, cores_space):
        indices = np.array([2, 8, 15, 22, 28])
        for name in ("swish", "x264", "jacobi"):
            truth = cores_truth.leave_one_out(name).true_rates
            problem, _ = _leave_one_out_problem(
                cores_dataset, cores_space, name, indices, truth[indices])
            normalized, scale = normalize_problem(problem)
            estimate = LEOEstimator().estimate(normalized) * scale
            assert accuracy(estimate, truth) > 0.8, name

    def test_interpolates_observations(self, cores_dataset, cores_truth,
                                       cores_space):
        indices = np.array([0, 7, 15, 23, 31])
        truth = cores_truth.leave_one_out("swish").true_rates
        problem, _ = _leave_one_out_problem(
            cores_dataset, cores_space, "swish", indices, truth[indices])
        normalized, scale = normalize_problem(problem)
        estimate = LEOEstimator().estimate(normalized) * scale
        rel = np.abs(estimate[indices] - truth[indices]) / truth[indices]
        assert rel.max() < 0.15


class TestInitialization:
    def test_offline_init_at_least_as_good_as_random(self, cores_dataset,
                                                     cores_truth,
                                                     cores_space):
        """Section 5.5: initializing mu from the offline estimate helps."""
        indices = np.array([4, 9, 14, 19, 24, 29])
        truth = cores_truth.leave_one_out("kmeans").true_rates
        problem, _ = _leave_one_out_problem(
            cores_dataset, cores_space, "kmeans", indices, truth[indices])
        normalized, scale = normalize_problem(problem)
        config = EMConfig(max_iterations=2, tol=1e-9)
        offline_init = LEOEstimator(em_config=config, init="offline")
        random_init = LEOEstimator(em_config=config, init="random", seed=0)
        acc_offline = accuracy(offline_init.estimate(normalized) * scale,
                               truth)
        acc_random = accuracy(random_init.estimate(normalized) * scale,
                              truth)
        assert acc_offline >= acc_random - 0.02

    def test_online_init_runs_and_is_accurate(self, cores_dataset,
                                              cores_truth, cores_space):
        indices = np.array([4, 9, 14, 19, 24, 29])
        truth = cores_truth.leave_one_out("kmeans").true_rates
        problem, _ = _leave_one_out_problem(
            cores_dataset, cores_space, "kmeans", indices, truth[indices])
        normalized, scale = normalize_problem(problem)
        estimator = LEOEstimator(init="online")
        estimate = estimator.estimate(normalized) * scale
        assert accuracy(estimate, truth) > 0.85

    def test_online_init_falls_back_below_coefficients(self, cores_dataset,
                                                       cores_truth,
                                                       cores_space):
        """With too few samples for regression, online init degrades to
        the offline initialization instead of failing."""
        indices = np.array([7, 23])
        truth = cores_truth.leave_one_out("swish").true_rates
        problem, _ = _leave_one_out_problem(
            cores_dataset, cores_space, "swish", indices, truth[indices])
        normalized, scale = normalize_problem(problem)
        estimate = LEOEstimator(init="online").estimate(normalized) * scale
        assert np.all(np.isfinite(estimate))

    def test_random_init_is_seeded(self, cores_dataset, cores_truth,
                                   cores_space):
        indices = np.array([4, 9, 14, 19, 24, 29])
        truth = cores_truth.leave_one_out("swish").true_rates
        problem, _ = _leave_one_out_problem(
            cores_dataset, cores_space, "swish", indices, truth[indices])
        config = EMConfig(max_iterations=1, tol=1e-9)
        a = LEOEstimator(em_config=config, init="random", seed=3).estimate(
            problem)
        b = LEOEstimator(em_config=config, init="random", seed=3).estimate(
            problem)
        np.testing.assert_allclose(a, b)


class TestOneConfigurationView:
    """The fits of a ``cluster_cap`` burst: a view of few configurations
    that the samples observe completely.  On a one-configuration view
    the rate fit's standardized data is all zero, so EM runs in an
    empty subspace (r = 0); the power fit's subspace is a line."""

    @staticmethod
    def _problem(cores_space, prior, observed):
        return EstimationProblem(
            features=cores_space.subspace([7]).feature_matrix(),
            prior=prior[:, [7]], observed_indices=np.array([0]),
            observed_values=np.array([observed]))

    def test_rate_fit_returns_the_observation(self, cores_dataset,
                                              cores_space):
        view = cores_dataset.leave_one_out("kmeans")
        observed = float(view.true_rates[7])
        normalized, scale = normalize_problem(
            self._problem(cores_space, view.prior_rates, observed))
        estimator = LEOEstimator()
        curve = estimator.estimate(normalized) * scale
        assert estimator.last_fit.result.sigma_basis.dim == 0
        assert curve.tolist() == [observed]

    def test_power_fit_shrinks_toward_the_prior(self, cores_dataset,
                                                cores_space):
        view = cores_dataset.leave_one_out("kmeans")
        estimator = LEOEstimator()
        curve = estimator.estimate(
            self._problem(cores_space, view.prior_powers, 150.0))
        assert estimator.last_fit.result.sigma_basis.dim == 1
        assert curve.shape == (1,)
        assert curve[0] == pytest.approx(149.93329803162933, rel=1e-9)
