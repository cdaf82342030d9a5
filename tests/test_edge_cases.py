"""Adversarial edge cases across module boundaries.

Configurations collapse to one, idle power inverts, priors are singular,
deadlines are tiny — states a long-lived deployment will eventually see.
"""

import numpy as np
import pytest

from repro.core.em import EMConfig, EMEngine
from repro.core.observation import ObservationSet
from repro.core.priors import NIWPrior
from repro.estimators.base import EstimationProblem
from repro.estimators.leo import LEOEstimator
from repro.estimators.offline import OfflineEstimator
from repro.optimize.lp import EnergyMinimizer
from repro.optimize.pareto import TradeoffFrontier


class TestSingleConfiguration:
    def test_em_with_one_config(self):
        values = np.array([[2.0], [2.2], [1.9]])
        mask = np.ones((3, 1), dtype=bool)
        obs = ObservationSet(values, mask)
        result = EMEngine(prior=NIWPrior.paper_default(),
                          config=EMConfig(max_iterations=5)).fit(obs)
        assert result.zhat.shape == (3, 1)
        assert np.isfinite(result.zhat).all()

    def test_leo_with_one_config(self):
        problem = EstimationProblem(
            features=np.array([[1.0]]), prior=np.array([[5.0], [6.0]]),
            observed_indices=np.array([0]),
            observed_values=np.array([5.5]))
        estimate = LEOEstimator().estimate(problem)
        assert estimate.shape == (1,)
        assert np.isfinite(estimate).all()

    def test_minimizer_with_one_config(self):
        minimizer = EnergyMinimizer([10.0], [200.0], idle_power=80.0)
        schedule = minimizer.solve(work=50.0, deadline=10.0)
        assert schedule.work([10.0]) == pytest.approx(50.0)


class TestInvertedEconomics:
    def test_idle_power_above_active_power(self):
        """A machine whose idle draw exceeds a config's draw: running
        flat-out is then optimal, and the hull handles it."""
        minimizer = EnergyMinimizer([10.0, 20.0], [50.0, 90.0],
                                    idle_power=100.0)
        energy_low = minimizer.min_energy(work=10.0, deadline=10.0)
        # Mixing toward the cheap active config beats idling.
        assert energy_low < 100.0 * 10.0

    def test_frontier_with_descending_power(self):
        """Power decreasing in rate: the fast config dominates."""
        frontier = TradeoffFrontier([1.0, 2.0, 3.0],
                                    [300.0, 200.0, 100.0],
                                    idle_power=80.0)
        assert frontier.power_at(3.0) == pytest.approx(100.0)
        # Interpolation at lower rates uses the idle anchor and the
        # dominant vertex, never the dominated expensive slow configs.
        assert frontier.power_at(1.5) < 300.0


class TestDegeneratePriors:
    def test_identical_prior_rows(self):
        prior = np.tile(np.linspace(1, 2, 6), (5, 1))
        problem = EstimationProblem(
            features=np.ones((6, 1)), prior=prior,
            observed_indices=np.array([0, 3]),
            observed_values=np.array([1.0, 1.6]))
        estimate = LEOEstimator().estimate(problem)
        assert np.isfinite(estimate).all()

    def test_offline_single_prior_app(self):
        prior = np.array([[1.0, 2.0, 3.0]])
        problem = EstimationProblem(
            features=np.ones((3, 1)), prior=prior,
            observed_indices=np.array([0]),
            observed_values=np.array([9.0]))
        np.testing.assert_allclose(OfflineEstimator().estimate(problem),
                                   prior[0])

    def test_leo_single_prior_app(self):
        prior = np.array([[1.0, 2.0, 3.0, 4.0]])
        problem = EstimationProblem(
            features=np.ones((4, 1)), prior=prior,
            observed_indices=np.array([1]),
            observed_values=np.array([2.5]))
        estimate = LEOEstimator().estimate(problem)
        assert np.isfinite(estimate).all()


class TestTinyDeadlines:
    def test_minimizer_microsecond_deadline(self):
        minimizer = EnergyMinimizer([1e6], [200.0], idle_power=80.0)
        schedule = minimizer.solve(work=1.0, deadline=1e-6)
        assert schedule.work([1e6]) == pytest.approx(1.0)

    def test_controller_short_window(self, cores_space, cores_dataset):
        from repro.platform.machine import Machine
        from repro.runtime.controller import (RuntimeController,
                                              TradeoffEstimate)
        from repro.workloads.suite import get_benchmark
        machine = Machine(seed=91)
        kmeans = get_benchmark("kmeans")
        view = cores_dataset.leave_one_out("kmeans")
        rates = np.array([machine.true_rate(kmeans, c)
                          for c in cores_space])
        powers = np.array([machine.true_power(kmeans, c)
                           for c in cores_space])
        controller = RuntimeController(
            machine=machine, space=cores_space, estimator=LEOEstimator(),
            prior_rates=view.prior_rates, prior_powers=view.prior_powers)
        report = controller.run(
            kmeans, work=rates.max() * 0.1, deadline=0.5,
            estimate=TradeoffEstimate(rates=rates, powers=powers,
                                      estimator_name="exhaustive"))
        assert report.work_done > 0


class TestExtremeScales:
    def test_leo_with_enormous_values(self):
        rng = np.random.default_rng(0)
        prior = np.abs(rng.normal(1e12, 1e11, (5, 8))) + 1e10
        problem = EstimationProblem(
            features=np.ones((8, 1)), prior=prior,
            observed_indices=np.array([0, 4]),
            observed_values=prior.mean(axis=0)[[0, 4]])
        estimate = LEOEstimator().estimate(problem)
        assert np.isfinite(estimate).all()
        assert estimate.mean() > 1e10

    def test_leo_with_minuscule_values(self):
        rng = np.random.default_rng(1)
        prior = np.abs(rng.normal(1e-9, 1e-10, (5, 8))) + 1e-10
        problem = EstimationProblem(
            features=np.ones((8, 1)), prior=prior,
            observed_indices=np.array([2, 6]),
            observed_values=prior.mean(axis=0)[[2, 6]])
        estimate = LEOEstimator().estimate(problem)
        assert np.isfinite(estimate).all()
        assert estimate.mean() < 1e-7
