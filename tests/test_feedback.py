"""Tests for repro.runtime.feedback (hull-based integral control)."""

import numpy as np
import pytest

from repro.optimize.lp import EnergyMinimizer
from repro.platform.machine import Machine
from repro.runtime.controller import TradeoffEstimate
from repro.runtime.feedback import HullRateController
from repro.workloads.suite import get_benchmark


def _truth(machine, profile, space):
    rates = np.array([machine.true_rate(profile, c) for c in space])
    powers = np.array([machine.true_power(profile, c) for c in space])
    return TradeoffEstimate.from_truth(rates, powers)


class TestValidation:
    def test_constructor(self, cores_space):
        with pytest.raises(ValueError):
            HullRateController(Machine(), cores_space, gain=0.0)
        with pytest.raises(ValueError):
            HullRateController(Machine(), cores_space, gain=2.5)

    def test_run_inputs(self, cores_space):
        machine = Machine(seed=71)
        controller = HullRateController(machine, cores_space)
        estimate = _truth(machine, get_benchmark("swish"), cores_space)
        with pytest.raises(ValueError):
            controller.run(get_benchmark("swish"), -1.0, 10.0, estimate)
        with pytest.raises(ValueError):
            controller.run(get_benchmark("swish"), 1.0, 0.0, estimate)


class TestTracking:
    def test_meets_demand_with_true_model(self, cores_space):
        machine = Machine(seed=72)
        swish = get_benchmark("swish")
        estimate = _truth(machine, swish, cores_space)
        controller = HullRateController(machine, cores_space)
        work = 0.5 * estimate.rates.max() * 40.0
        report = controller.run(swish, work, 40.0, estimate)
        assert report.met_target
        assert machine.clock == pytest.approx(40.0)

    def test_near_optimal_energy_with_true_model(self, cores_space):
        machine = Machine(seed=73)
        x264 = get_benchmark("x264")
        estimate = _truth(machine, x264, cores_space)
        controller = HullRateController(machine, cores_space)
        work = 0.4 * estimate.rates.max() * 40.0
        report = controller.run(x264, work, 40.0, estimate)
        optimal = EnergyMinimizer(estimate.rates, estimate.powers,
                                  machine.idle_power())
        assert report.energy <= 1.08 * optimal.min_energy(work, 40.0)

    def test_integral_action_absorbs_model_bias(self, cores_space):
        """Rates overestimated 25%: the controller still converges on
        the demand by pushing the signal up the hull."""
        machine = Machine(seed=74)
        swish = get_benchmark("swish")
        truth = _truth(machine, swish, cores_space)
        biased = TradeoffEstimate(rates=truth.rates * 1.25,
                                  powers=truth.powers,
                                  estimator_name="biased")
        controller = HullRateController(machine, cores_space, gain=0.8)
        work = 0.5 * truth.rates.max() * 40.0
        report = controller.run(swish, work, 40.0, biased)
        assert report.work_done >= 0.97 * work

    def test_zero_work_idles(self, cores_space):
        machine = Machine(seed=75)
        swish = get_benchmark("swish")
        estimate = _truth(machine, swish, cores_space)
        controller = HullRateController(machine, cores_space)
        report = controller.run(swish, 0.0, 10.0, estimate)
        assert report.energy == pytest.approx(
            machine.idle_power() * 10.0, rel=0.01)

    def test_infeasible_demand_reported_honestly(self, cores_space):
        machine = Machine(seed=76)
        kmeans = get_benchmark("kmeans")
        estimate = _truth(machine, kmeans, cores_space)
        controller = HullRateController(machine, cores_space)
        work = estimate.rates.max() * 40.0 * 1.5
        report = controller.run(kmeans, work, 40.0, estimate)
        assert not report.met_target
        assert report.work_done < work


class TestAgainstLPController:
    def test_comparable_energy_on_good_model(self, cores_space,
                                             cores_dataset):
        """With an accurate model, the one-lookup controller lands within
        a few percent of the per-quantum LP re-solver."""
        from repro.estimators.leo import LEOEstimator
        from repro.runtime.controller import RuntimeController
        kmeans = get_benchmark("kmeans")
        view = cores_dataset.leave_one_out("kmeans")

        machine_a = Machine(seed=77)
        estimate = _truth(machine_a, kmeans, cores_space)
        work = 0.45 * estimate.rates.max() * 40.0

        feedback = HullRateController(machine_a, cores_space)
        fb_report = feedback.run(kmeans, work, 40.0, estimate)

        machine_b = Machine(seed=77)
        lp = RuntimeController(
            machine=machine_b, space=cores_space, estimator=LEOEstimator(),
            prior_rates=view.prior_rates, prior_powers=view.prior_powers)
        lp_report = lp.run(kmeans, work, 40.0, estimate)

        assert fb_report.met_target and lp_report.met_target
        assert fb_report.energy <= 1.06 * lp_report.energy
