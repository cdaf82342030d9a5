"""Tests for repro.runtime.controller."""

import numpy as np
import pytest

from repro.estimators.leo import LEOEstimator
from repro.estimators.offline import OfflineEstimator
from repro.optimize.lp import EnergyMinimizer
from repro.runtime.controller import RuntimeController, TradeoffEstimate
from repro.runtime.sampling import GridSampler, RandomSampler
from repro.workloads.phases import fluidanimate_two_phase
from repro.workloads.suite import get_benchmark


@pytest.fixture()
def leo_controller(machine, cores_space, cores_dataset):
    view = cores_dataset.leave_one_out("kmeans")
    return RuntimeController(
        machine=machine, space=cores_space, estimator=LEOEstimator(),
        prior_rates=view.prior_rates, prior_powers=view.prior_powers,
        sampler=RandomSampler(seed=0), sample_count=6)


def _oracle_estimate(machine, profile, space) -> TradeoffEstimate:
    rates, powers = machine.sweep(profile, space, noisy=False)
    return TradeoffEstimate(rates=rates, powers=powers,
                            estimator_name="exhaustive")


class TestCalibrate:
    def test_produces_positive_curves(self, leo_controller, kmeans,
                                      cores_space):
        estimate = leo_controller.calibrate(kmeans)
        assert estimate.rates.shape == (len(cores_space),)
        assert (estimate.rates > 0).all()
        assert (estimate.powers > 0).all()

    def test_charges_sampling_cost(self, leo_controller, kmeans):
        estimate = leo_controller.calibrate(kmeans)
        assert estimate.sampling_time == pytest.approx(6.0)  # 6 x 1 s
        assert estimate.sampling_energy > 0
        assert estimate.fit_seconds > 0

    def test_estimate_close_to_truth(self, leo_controller, machine,
                                     kmeans, cores_space):
        estimate = leo_controller.calibrate(kmeans)
        truth = np.array([machine.true_rate(kmeans, c) for c in cores_space])
        from repro.core.accuracy import accuracy
        assert accuracy(estimate.rates, truth) > 0.8

    def test_sample_count_override(self, leo_controller, kmeans):
        estimate = leo_controller.calibrate(kmeans, sample_count=10,
                                            sample_window=0.5)
        assert estimate.sampling_time == pytest.approx(5.0)

    def test_constructor_validation(self, machine, cores_space):
        with pytest.raises(ValueError):
            RuntimeController(machine, cores_space, LEOEstimator(),
                              sample_count=0)
        with pytest.raises(ValueError):
            RuntimeController(machine, cores_space, LEOEstimator(),
                              sample_window=0.0)


class TestRun:
    def test_meets_feasible_demand(self, leo_controller, machine, kmeans,
                                   cores_space):
        estimate = _oracle_estimate(machine, kmeans, cores_space)
        work = 0.5 * estimate.rates.max() * 50.0
        report = leo_controller.run(kmeans, work, 50.0, estimate)
        assert report.met_target
        assert report.work_done >= 0.99 * work

    def test_energy_above_analytic_optimum(self, leo_controller, machine,
                                           kmeans, cores_space):
        estimate = _oracle_estimate(machine, kmeans, cores_space)
        work = 0.5 * estimate.rates.max() * 50.0
        report = leo_controller.run(kmeans, work, 50.0, estimate)
        optimal = EnergyMinimizer(estimate.rates, estimate.powers,
                                  machine.idle_power())
        assert report.energy >= 0.97 * optimal.min_energy(work, 50.0)

    def test_oracle_run_near_optimal(self, leo_controller, machine,
                                     kmeans, cores_space):
        estimate = _oracle_estimate(machine, kmeans, cores_space)
        work = 0.4 * estimate.rates.max() * 50.0
        report = leo_controller.run(kmeans, work, 50.0, estimate)
        optimal = EnergyMinimizer(estimate.rates, estimate.powers,
                                  machine.idle_power())
        assert report.energy == pytest.approx(
            optimal.min_energy(work, 50.0), rel=0.05)

    def test_zero_work_idles_the_window(self, leo_controller, machine,
                                        kmeans, cores_space):
        estimate = _oracle_estimate(machine, kmeans, cores_space)
        report = leo_controller.run(kmeans, 0.0, 10.0, estimate)
        assert report.energy == pytest.approx(
            machine.idle_power() * 10.0, rel=0.01)

    def test_traces_cover_window(self, leo_controller, machine, kmeans,
                                 cores_space):
        estimate = _oracle_estimate(machine, kmeans, cores_space)
        report = leo_controller.run(kmeans, 100.0, 10.0, estimate)
        # One entry per executed quantum; work-completion trimming can
        # split quanta, so there are at least deadline/quantum entries.
        assert len(report.power_trace) == len(report.rate_trace)
        assert len(report.power_trace) >= 20

    def test_validation(self, leo_controller, machine, kmeans, cores_space):
        estimate = _oracle_estimate(machine, kmeans, cores_space)
        with pytest.raises(ValueError):
            leo_controller.run(kmeans, -1.0, 10.0, estimate)
        with pytest.raises(ValueError):
            leo_controller.run(kmeans, 1.0, 0.0, estimate)

    def test_feedback_corrects_bad_estimates(self, machine, cores_space,
                                             cores_dataset, kmeans):
        """A wildly optimistic estimate still roughly meets the demand."""
        view = cores_dataset.leave_one_out("kmeans")
        controller = RuntimeController(
            machine=machine, space=cores_space, estimator=OfflineEstimator(),
            prior_rates=view.prior_rates, prior_powers=view.prior_powers)
        truth = _oracle_estimate(machine, kmeans, cores_space)
        bogus = TradeoffEstimate(rates=truth.rates * 3.0,
                                 powers=truth.powers,
                                 estimator_name="bogus")
        work = 0.5 * truth.rates.max() * 50.0
        report = controller.run(kmeans, work, 50.0, bogus)
        assert report.work_done >= 0.9 * work


class TestPhasedRuns:
    def test_detects_and_adapts(self, machine, cores_space, cores_dataset):
        fluid = get_benchmark("fluidanimate")
        view = cores_dataset.leave_one_out("fluidanimate")
        controller = RuntimeController(
            machine=machine, space=cores_space, estimator=LEOEstimator(),
            prior_rates=view.prior_rates, prior_powers=view.prior_powers,
            sampler=GridSampler(), sample_count=6)
        max_rate = max(machine.true_rate(fluid, c) for c in cores_space)
        target = 0.5 * max_rate
        workload = fluidanimate_two_phase(
            fluid, frames_per_phase=max(int(target * 25), 10),
            frame_deadline=1.0 / target)
        reports = controller.run_phased(workload)
        assert len(reports) == 2
        assert all(r.met_target for r in reports)
        total_reestimations = sum(r.reestimations for r in reports)
        assert total_reestimations >= 1  # noticed the phase change

    def test_non_adaptive_never_recalibrates(self, machine, cores_space,
                                             cores_dataset):
        fluid = get_benchmark("fluidanimate")
        view = cores_dataset.leave_one_out("fluidanimate")
        controller = RuntimeController(
            machine=machine, space=cores_space, estimator=LEOEstimator(),
            prior_rates=view.prior_rates, prior_powers=view.prior_powers,
            sampler=GridSampler(), sample_count=6)
        max_rate = max(machine.true_rate(fluid, c) for c in cores_space)
        target = 0.5 * max_rate
        workload = fluidanimate_two_phase(
            fluid, frames_per_phase=max(int(target * 20), 10),
            frame_deadline=1.0 / target)
        reports = controller.run_phased(workload, adapt=False)
        assert sum(r.reestimations for r in reports) == 0
