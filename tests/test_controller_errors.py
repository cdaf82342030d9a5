"""Error-path tests for the runtime controller and facade."""

import numpy as np
import pytest

from repro.estimators.base import InsufficientSamplesError
from repro.estimators.online import OnlineEstimator
from repro.platform.config_space import ConfigurationSpace
from repro.platform.machine import Machine
from repro.runtime.controller import RuntimeController
from repro.runtime.sampling import RandomSampler
from repro.workloads.suite import get_benchmark


class TestCalibrationErrors:
    def test_online_below_coefficients_raises_clearly(self, paper_space,
                                                      cores_dataset):
        """Calibrating the online estimator with too few samples fails
        loudly (the experiment harness catches this and scores 0; direct
        users get the explanatory error)."""
        # Use the paper space: 4 varying knobs -> 15 coefficients.
        machine = Machine(seed=51)
        controller = RuntimeController(
            machine=machine, space=paper_space, estimator=OnlineEstimator(),
            prior_rates=None, prior_powers=None,
            sampler=RandomSampler(seed=0), sample_count=10)
        with pytest.raises(InsufficientSamplesError, match="15"):
            controller.calibrate(get_benchmark("x264"))

    def test_leo_without_priors_raises(self, cores_space):
        from repro.estimators.leo import LEOEstimator
        machine = Machine(seed=52)
        controller = RuntimeController(
            machine=machine, space=cores_space, estimator=LEOEstimator(),
            prior_rates=None, prior_powers=None, sample_count=6)
        with pytest.raises(ValueError, match="prior"):
            controller.calibrate(get_benchmark("kmeans"))

    def test_sampling_cost_charged_even_on_failure(self, paper_space):
        """The machine time spent sampling is real even if the fit
        fails afterwards."""
        machine = Machine(seed=53)
        controller = RuntimeController(
            machine=machine, space=paper_space, estimator=OnlineEstimator(),
            prior_rates=None, prior_powers=None,
            sampler=RandomSampler(seed=0), sample_count=10)
        with pytest.raises(InsufficientSamplesError):
            controller.calibrate(get_benchmark("x264"))
        assert machine.clock == pytest.approx(10.0)


class TestRunReportHonesty:
    def test_work_done_never_exceeds_possible(self, cores_space,
                                              cores_dataset):
        from repro.estimators.leo import LEOEstimator
        from repro.runtime.controller import TradeoffEstimate
        machine = Machine(seed=54)
        kmeans = get_benchmark("kmeans")
        view = cores_dataset.leave_one_out("kmeans")
        truth = np.array([machine.true_rate(kmeans, c)
                          for c in cores_space])
        powers = np.array([machine.true_power(kmeans, c)
                           for c in cores_space])
        controller = RuntimeController(
            machine=machine, space=cores_space, estimator=LEOEstimator(),
            prior_rates=view.prior_rates, prior_powers=view.prior_powers)
        deadline = 20.0
        report = controller.run(
            kmeans, work=truth.max() * deadline * 2.0, deadline=deadline,
            estimate=TradeoffEstimate(rates=truth, powers=powers,
                                      estimator_name="exhaustive"))
        # Even flat out, no more than max-rate x deadline (+noise slack).
        assert report.work_done <= truth.max() * deadline * 1.05
        assert not report.met_target

    def test_energy_matches_machine_accounting(self, cores_space,
                                               cores_dataset):
        from repro.estimators.leo import LEOEstimator
        from repro.runtime.controller import TradeoffEstimate
        machine = Machine(seed=55)
        swish = get_benchmark("swish")
        view = cores_dataset.leave_one_out("swish")
        truth = np.array([machine.true_rate(swish, c)
                          for c in cores_space])
        powers = np.array([machine.true_power(swish, c)
                           for c in cores_space])
        controller = RuntimeController(
            machine=machine, space=cores_space, estimator=LEOEstimator(),
            prior_rates=view.prior_rates, prior_powers=view.prior_powers)
        before = machine.total_energy
        report = controller.run(
            swish, work=0.3 * truth.max() * 20.0, deadline=20.0,
            estimate=TradeoffEstimate(rates=truth, powers=powers,
                                      estimator_name="exhaustive"))
        assert report.energy == pytest.approx(
            machine.total_energy - before)
        assert machine.clock == pytest.approx(20.0)
