"""End-to-end integration tests across module boundaries.

Each test exercises a full pipeline the way a user (or the paper's
evaluation) would: profile offline -> sample online -> estimate ->
optimize -> execute -> account energy.
"""

import numpy as np
import pytest

from repro.core.accuracy import accuracy
from repro.estimators.base import EstimationProblem, normalize_problem
from repro.estimators.leo import LEOEstimator
from repro.estimators.registry import create_estimator
from repro.optimize.lp import EnergyMinimizer
from repro.platform.config_space import ConfigurationSpace
from repro.platform.machine import Machine
from repro.runtime.controller import RuntimeController, TradeoffEstimate
from repro.runtime.race_to_idle import RaceToIdleController
from repro.runtime.sampling import RandomSampler
from repro.workloads.suite import get_benchmark, paper_suite
from repro.workloads.traces import OfflineDataset


class TestFullPipelineCoresSpace:
    """The Section 2 pipeline on the 32-config space."""

    def test_estimate_optimize_execute(self, cores_space, cores_dataset):
        machine = Machine(seed=42)
        kmeans = get_benchmark("kmeans")
        view = cores_dataset.leave_one_out("kmeans")

        controller = RuntimeController(
            machine=machine, space=cores_space, estimator=LEOEstimator(),
            prior_rates=view.prior_rates, prior_powers=view.prior_powers,
            sampler=RandomSampler(seed=1), sample_count=8)
        estimate = controller.calibrate(kmeans)

        truth = np.array([machine.true_rate(kmeans, c) for c in cores_space])
        assert accuracy(estimate.rates, truth) > 0.85

        work = 0.5 * truth.max() * 60.0
        report = controller.run(kmeans, work, 60.0, estimate)
        assert report.met_target

        race = RaceToIdleController(machine, cores_space)
        race_report = race.run(kmeans, work, 60.0)
        assert report.energy < race_report.energy

    def test_energy_close_to_true_optimal(self, cores_space, cores_dataset):
        machine = Machine(seed=43)
        swish = get_benchmark("swish")
        view = cores_dataset.leave_one_out("swish")
        controller = RuntimeController(
            machine=machine, space=cores_space, estimator=LEOEstimator(),
            prior_rates=view.prior_rates, prior_powers=view.prior_powers,
            sampler=RandomSampler(seed=2), sample_count=8)
        estimate = controller.calibrate(swish)

        true_rates = np.array([machine.true_rate(swish, c)
                               for c in cores_space])
        true_powers = np.array([machine.true_power(swish, c)
                                for c in cores_space])
        optimal = EnergyMinimizer(true_rates, true_powers,
                                  machine.idle_power())
        work = 0.5 * true_rates.max() * 60.0
        report = controller.run(swish, work, 60.0, estimate)
        assert report.energy <= 1.15 * optimal.min_energy(work, 60.0)


class TestFullPipelinePaperSpace:
    """One leave-one-out pass on the full 1024-config space."""

    @pytest.fixture(scope="class")
    def paper_setup(self, paper_space):
        machine = Machine(seed=7)
        dataset = OfflineDataset.collect(machine, paper_suite(),
                                         paper_space, noisy=True)
        return machine, dataset

    def test_leo_beats_baselines_on_kmeans(self, paper_space, paper_setup):
        machine, dataset = paper_setup
        kmeans = get_benchmark("kmeans")
        view = dataset.leave_one_out("kmeans")
        rng = np.random.default_rng(0)
        indices = np.sort(rng.choice(1024, 20, replace=False))

        sampler = Machine(seed=11)
        sampler.load(kmeans)
        rate_obs = []
        for i in indices:
            sampler.apply(paper_space[int(i)])
            rate_obs.append(sampler.run_for(1.0).rate)
        rate_obs = np.array(rate_obs)

        problem = EstimationProblem(
            features=paper_space.feature_matrix(), prior=view.prior_rates,
            observed_indices=indices, observed_values=rate_obs)
        normalized, scale = normalize_problem(problem)
        truth = view.true_rates

        scores = {}
        for name in ("leo", "offline", "online"):
            estimator = create_estimator(name)
            estimate = estimator.estimate(normalized) * scale
            scores[name] = accuracy(estimate, truth)
        assert scores["leo"] > 0.9
        assert scores["leo"] > scores["online"]
        assert scores["leo"] > scores["offline"]

    def test_sampled_fraction_below_two_percent(self, paper_space):
        """The paper's claim: less than 2% of the configuration space."""
        assert 20 / len(paper_space) < 0.02


class TestMeterIntegration:
    def test_wall_meter_tracks_controller_run(self, cores_space,
                                              cores_dataset):
        machine = Machine(seed=44)
        x264 = get_benchmark("x264")
        view = cores_dataset.leave_one_out("x264")
        controller = RuntimeController(
            machine=machine, space=cores_space, estimator=LEOEstimator(),
            prior_rates=view.prior_rates, prior_powers=view.prior_powers,
            sampler=RandomSampler(seed=3), sample_count=6)
        estimate = controller.calibrate(x264)

        work = 0.4 * estimate.rates.max() * 30.0
        energy_before = machine.total_energy
        clock_before = machine.clock
        report = controller.run(x264, work, 30.0, estimate)
        measured = machine.total_energy - energy_before
        assert report.energy == pytest.approx(measured, rel=1e-9)
        # The run spans its whole window on the machine's clock.
        assert machine.clock - clock_before == pytest.approx(30.0)


class TestDeterminism:
    def test_identical_seeds_identical_runs(self, cores_space):
        def run_once():
            machine = Machine(seed=77)
            dataset = OfflineDataset.collect(
                Machine(seed=78), paper_suite(), cores_space, noisy=True)
            view = dataset.leave_one_out("kmeans")
            controller = RuntimeController(
                machine=machine, space=cores_space,
                estimator=LEOEstimator(),
                prior_rates=view.prior_rates,
                prior_powers=view.prior_powers,
                sampler=RandomSampler(seed=5), sample_count=6)
            estimate = controller.calibrate(get_benchmark("kmeans"))
            report = controller.run(get_benchmark("kmeans"),
                                    1000.0, 20.0, estimate)
            return estimate.rates, report.energy

        rates_a, energy_a = run_once()
        rates_b, energy_b = run_once()
        np.testing.assert_allclose(rates_a, rates_b)
        assert energy_a == energy_b
