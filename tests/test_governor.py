"""Tests for repro.runtime.governor (the ondemand baseline)."""

import numpy as np
import pytest

from repro.optimize.lp import EnergyMinimizer
from repro.platform.machine import Machine
from repro.runtime.governor import OndemandGovernor
from repro.runtime.race_to_idle import RaceToIdleController
from repro.workloads.suite import get_benchmark


class TestLadder:
    def test_ladder_is_all_resources_by_speed(self, paper_space):
        governor = OndemandGovernor(Machine(), paper_space)
        ladder = governor._speed_ladder
        assert len(ladder) == 16
        assert all(c.threads == 32 and c.memory_controllers == 2
                   for c in ladder)
        speeds = [c.speed.index for c in ladder]
        assert speeds == sorted(speeds)

    def test_cores_only_space_has_single_level(self, cores_space):
        governor = OndemandGovernor(Machine(), cores_space)
        assert len(governor._speed_ladder) == 1


class TestPolicy:
    def test_meets_feasible_demand(self, paper_space):
        machine = Machine(seed=61)
        swaptions = get_benchmark("swaptions")  # scales well at 32 threads
        governor = OndemandGovernor(machine, paper_space)
        full = governor._speed_ladder[-1]
        rate = machine.true_rate(swaptions, full)
        report = governor.run(swaptions, work=rate * 0.5 * 40.0,
                              deadline=40.0)
        assert report.met_target

    def test_downclocks_at_low_demand(self, paper_space):
        """At light demand the governor should leave the top frequency."""
        machine = Machine(seed=62)
        swaptions = get_benchmark("swaptions")
        governor = OndemandGovernor(machine, paper_space)
        full = governor._speed_ladder[-1]
        rate = machine.true_rate(swaptions, full)
        report = governor.run(swaptions, work=rate * 0.2 * 40.0,
                              deadline=40.0)
        assert report.met_target
        busy_powers = [p for p, r in zip(report.power_trace,
                                         report.rate_trace) if r > 0]
        full_power = machine.true_power(swaptions, full)
        assert min(busy_powers) < 0.9 * full_power

    def test_beats_race_to_idle_at_low_demand(self, paper_space):
        """Downclocking saves energy vs racing at turbo, for scalable
        compute work at modest utilization."""
        swaptions = get_benchmark("swaptions")
        machine_a = Machine(seed=63)
        governor = OndemandGovernor(machine_a, paper_space)
        full = governor._speed_ladder[-1]
        work = machine_a.true_rate(swaptions, full) * 0.3 * 40.0

        gov_report = governor.run(swaptions, work, 40.0)
        machine_b = Machine(seed=63)
        racer = RaceToIdleController(machine_b, paper_space)
        race_report = racer.run(swaptions, work, 40.0)
        assert gov_report.met_target and race_report.met_target
        assert gov_report.energy < race_report.energy

    def test_never_beats_true_optimal(self, paper_space):
        machine = Machine(seed=64)
        x264 = get_benchmark("x264")
        rates = np.array([machine.true_rate(x264, c) for c in paper_space])
        powers = np.array([machine.true_power(x264, c)
                           for c in paper_space])
        optimal = EnergyMinimizer(rates, powers, machine.idle_power())
        governor = OndemandGovernor(machine, paper_space)
        work = 0.4 * rates.max() * 40.0
        report = governor.run(x264, work, 40.0)
        assert report.energy >= 0.98 * optimal.min_energy(work, 40.0)

    def test_cannot_fix_contention(self, paper_space):
        """kmeans: all-resources is the wrong allocation; the governor
        cannot meet demands that need fewer threads."""
        machine = Machine(seed=65)
        kmeans = get_benchmark("kmeans")
        governor = OndemandGovernor(machine, paper_space)
        true_max = max(machine.true_rate(kmeans, c) for c in paper_space)
        report = governor.run(kmeans, work=0.9 * true_max * 40.0,
                              deadline=40.0)
        assert not report.met_target

    def test_validation(self, paper_space):
        governor = OndemandGovernor(Machine(), paper_space)
        kmeans = get_benchmark("kmeans")
        with pytest.raises(ValueError):
            governor.run(kmeans, work=-1.0, deadline=10.0)
        with pytest.raises(ValueError):
            governor.run(kmeans, work=1.0, deadline=0.0)
