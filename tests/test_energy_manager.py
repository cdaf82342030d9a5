"""Tests for repro.runtime.energy_manager (the public facade)."""

import pytest

from repro.platform.config_space import ConfigurationSpace
from repro.runtime.energy_manager import EnergyManager
from repro.workloads.suite import get_benchmark, paper_suite


@pytest.fixture(scope="module")
def manager(cores_space_module):
    return EnergyManager(estimator="leo", space=cores_space_module,
                         seed=0, sample_count=6)


@pytest.fixture(scope="module")
def cores_space_module():
    return ConfigurationSpace.cores_only()


class TestSetup:
    def test_defaults_to_paper_suite(self, cores_space_module):
        manager = EnergyManager(space=cores_space_module)
        assert len(manager.profiles) == 25

    def test_dataset_collected_lazily_once(self, manager):
        first = manager.dataset
        second = manager.dataset
        assert first is second
        assert len(first) == 25


class TestEstimateTradeoffs:
    def test_leave_one_out_for_suite_member(self, manager):
        kmeans = get_benchmark("kmeans")
        estimate = manager.estimate_tradeoffs(kmeans)
        assert estimate.rates.shape == (32,)
        assert estimate.estimator_name == "leo"

    def test_unknown_app_uses_full_priors(self, manager):
        foreign = get_benchmark("kmeans").scaled(0.8, name="kmeans-variant")
        estimate = manager.estimate_tradeoffs(foreign)
        assert (estimate.rates > 0).all()


class TestOptimize:
    def test_meets_utilization_demand(self, manager):
        swish = get_benchmark("swish")
        report = manager.optimize(swish, utilization=0.4, deadline=30.0)
        assert report.met_target
        assert report.energy > 0

    def test_reuses_precomputed_estimate(self, manager):
        swish = get_benchmark("swish")
        estimate = manager.estimate_tradeoffs(swish)
        report = manager.optimize(swish, utilization=0.3, deadline=30.0,
                                  estimate=estimate)
        assert report.met_target

    def test_rejects_bad_utilization(self, manager):
        with pytest.raises(ValueError):
            manager.optimize(get_benchmark("swish"), utilization=0.0)
        with pytest.raises(ValueError):
            manager.optimize(get_benchmark("swish"), utilization=1.5)

    def test_beats_race_to_idle_on_kmeans(self, manager):
        """The headline claim, end to end, on the motivating app."""
        kmeans = get_benchmark("kmeans")
        estimate = manager.estimate_tradeoffs(kmeans)
        leo = manager.optimize(kmeans, utilization=0.4, deadline=30.0,
                               estimate=estimate)
        race = manager.race_to_idle(kmeans, utilization=0.4, deadline=30.0)
        assert leo.energy < race.energy


class TestRaceToIdle:
    def test_validation(self, manager):
        with pytest.raises(ValueError):
            manager.race_to_idle(get_benchmark("swish"), utilization=0.0)

    def test_runs(self, manager):
        report = manager.race_to_idle(get_benchmark("x264"),
                                      utilization=0.3, deadline=30.0)
        assert report.energy > 0
