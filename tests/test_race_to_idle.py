"""Tests for repro.runtime.race_to_idle."""

import numpy as np
import pytest

from repro.platform.machine import Machine
from repro.runtime.race_to_idle import (
    RaceToIdleController,
    all_resources_config,
    race_to_idle_energy,
)


class TestAllResourcesConfig:
    def test_paper_space_maximum(self, paper_space):
        config = all_resources_config(paper_space)
        assert config.cores == 16
        assert config.threads == 32
        assert config.memory_controllers == 2
        assert config.speed.turbo

    def test_cores_space_maximum(self, cores_space):
        config = all_resources_config(cores_space)
        assert config.threads == 32


class TestController:
    def test_finishes_then_idles(self, machine, kmeans, cores_space):
        controller = RaceToIdleController(machine, cores_space)
        # kmeans at 32 threads is slow but nonzero; pick modest work.
        config = all_resources_config(cores_space)
        rate = machine.true_rate(kmeans, config)
        report = controller.run(kmeans, work=rate * 5.0, deadline=20.0)
        assert report.met_target
        assert report.work_done >= 0.99 * rate * 5.0
        # Tail of the traces must be idle.
        assert report.rate_trace[-1] == 0.0

    def test_energy_includes_idle_tail(self, machine, kmeans, cores_space):
        controller = RaceToIdleController(machine, cores_space)
        config = all_resources_config(cores_space)
        rate = machine.true_rate(kmeans, config)
        power = machine.true_power(kmeans, config)
        report = controller.run(kmeans, work=rate * 5.0, deadline=20.0)
        expected = power * 5.0 + machine.idle_power() * 15.0
        assert report.energy == pytest.approx(expected, rel=0.05)

    def test_never_exceeds_deadline(self, machine, swish, cores_space):
        controller = RaceToIdleController(machine, cores_space)
        report = controller.run(swish, work=1e9, deadline=10.0)
        assert machine.clock <= 10.0 + 1e-6
        assert not report.met_target

    def test_validation(self, machine, kmeans, cores_space):
        controller = RaceToIdleController(machine, cores_space)
        with pytest.raises(ValueError):
            controller.run(kmeans, work=-1.0, deadline=10.0)
        with pytest.raises(ValueError):
            controller.run(kmeans, work=1.0, deadline=0.0)


class TestClosedForm:
    def test_energy_formula(self):
        rates = np.array([10.0, 20.0])
        powers = np.array([100.0, 300.0])
        energy = race_to_idle_energy(rates, powers, race_index=1,
                                     idle_power=50.0, work=100.0,
                                     deadline=10.0)
        assert energy == pytest.approx(300.0 * 5.0 + 50.0 * 5.0)

    def test_infeasible_raises(self):
        with pytest.raises(ValueError):
            race_to_idle_energy(np.array([1.0]), np.array([100.0]), 0,
                                50.0, work=100.0, deadline=10.0)

    def test_closed_form_matches_simulation(self, machine, kmeans,
                                            cores_space):
        """The controller's measured energy matches the formula."""
        config = all_resources_config(cores_space)
        race_index = cores_space.index_of(config)
        rates, powers = machine.sweep(kmeans, cores_space, noisy=False)
        work = rates[race_index] * 4.0
        expected = race_to_idle_energy(rates, powers, race_index,
                                       machine.idle_power(), work, 20.0)
        controller = RaceToIdleController(machine, cores_space)
        report = controller.run(kmeans, work=work, deadline=20.0)
        assert report.energy == pytest.approx(expected, rel=0.05)
