"""Tests for repro.optimize.lp: the Eq. (1) energy minimizer."""

import numpy as np
import pytest

from repro.optimize.lp import EnergyMinimizer


@pytest.fixture()
def simple():
    """Three configs: slow/cheap, efficient, fast/hungry; idle at 50 W."""
    return EnergyMinimizer(rates=[1.0, 4.0, 5.0],
                           powers=[100.0, 160.0, 400.0],
                           idle_power=50.0)


class TestGeometry:
    def test_max_rate(self, simple):
        assert simple.max_rate == 5.0


class TestHullSolve:
    def test_schedule_meets_work_and_deadline(self, simple):
        schedule = simple.solve(work=20.0, deadline=10.0)
        assert schedule.work(simple.rates) == pytest.approx(20.0)
        assert schedule.total_time <= 10.0 + 1e-9

    def test_uses_at_most_two_configs(self, simple):
        schedule = simple.solve(work=20.0, deadline=10.0)
        assert len(schedule) <= 2

    def test_zero_work(self, simple):
        schedule = simple.solve(work=0.0, deadline=10.0)
        assert schedule.work(simple.rates) == 0.0

    def test_full_demand_uses_fastest(self, simple):
        schedule = simple.solve(work=50.0, deadline=10.0)
        indices = {slot.config_index for slot in schedule}
        assert indices == {2}

    def test_infeasible_demand_raises(self, simple):
        with pytest.raises(ValueError):
            simple.solve(work=51.0, deadline=10.0)

    def test_rejects_bad_inputs(self, simple):
        with pytest.raises(ValueError):
            simple.solve(work=-1.0, deadline=10.0)
        with pytest.raises(ValueError):
            simple.solve(work=1.0, deadline=0.0)
        with pytest.raises(ValueError, match="deadline"):
            simple.solve(work=1.0, deadline=np.inf)

    def test_min_energy_includes_idle_window(self, simple):
        # Demand achievable by the efficient config in 5 of 10 seconds:
        # LP mixes idle (50 W) and config 1 (160 W at rate 4).
        energy = simple.min_energy(work=20.0, deadline=10.0)
        assert energy == pytest.approx(5 * 160.0 + 5 * 50.0)

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            EnergyMinimizer([1.0], [10.0], 5.0, mode="bogus")


class TestActiveEnergyMode:
    def test_runs_most_efficient_alone_when_time_allows(self):
        minimizer = EnergyMinimizer([1.0, 4.0], [100.0, 160.0], 50.0,
                                    mode="active-energy")
        schedule = minimizer.solve(work=8.0, deadline=10.0)
        # Config 1 at 40 J/work beats config 0 at 100 J/work.
        assert [s.config_index for s in schedule] == [1]
        assert schedule.total_time == pytest.approx(2.0)

    def test_active_energy_excludes_idle(self):
        minimizer = EnergyMinimizer([1.0, 4.0], [100.0, 160.0], 50.0,
                                    mode="active-energy")
        energy = minimizer.min_energy(work=8.0, deadline=10.0)
        assert energy == pytest.approx(2.0 * 160.0)

    def test_time_constrained_mixes_on_hull(self):
        minimizer = EnergyMinimizer([1.0, 4.0], [100.0, 160.0], 50.0,
                                    mode="active-energy")
        schedule = minimizer.solve(work=40.0, deadline=10.0)
        assert schedule.work(minimizer.rates) == pytest.approx(40.0)


class TestSimplexCrossCheck:
    @pytest.mark.parametrize("seed", range(5))
    def test_hull_matches_simplex(self, seed):
        rng = np.random.default_rng(seed)
        n = 40
        rates = rng.uniform(1, 50, n)
        powers = 80 + 2.5 * rates + rng.uniform(0, 50, n)
        idle = 60.0
        minimizer = EnergyMinimizer(rates, powers, idle)
        deadline = 10.0
        for utilization in (0.2, 0.5, 0.9):
            work = utilization * minimizer.max_rate * deadline
            hull_energy = minimizer.min_energy(work, deadline)
            _, solution = minimizer.solve_simplex(work, deadline)
            assert hull_energy == pytest.approx(solution.objective,
                                                rel=1e-6)

    def test_simplex_schedule_is_feasible(self, simple):
        schedule, _ = simple.solve_simplex(work=20.0, deadline=10.0)
        assert schedule.work(simple.rates) == pytest.approx(20.0)
        assert schedule.total_time == pytest.approx(10.0)

    def test_active_mode_simplex_matches(self):
        minimizer = EnergyMinimizer([1.0, 4.0], [100.0, 160.0], 50.0,
                                    mode="active-energy")
        schedule, solution = minimizer.solve_simplex(8.0, 10.0)
        direct = minimizer.min_energy(8.0, 10.0)
        assert solution.objective == pytest.approx(direct, rel=1e-9)


class TestRaceToIdle:
    def test_race_schedule_shape(self, simple):
        schedule = simple.race_to_idle(work=25.0, deadline=10.0)
        assert [s.config_index for s in schedule] == [2, None]
        assert schedule.total_time == pytest.approx(10.0)

    def test_race_energy_at_least_optimal(self, simple):
        work, deadline = 20.0, 10.0
        race = simple.race_to_idle(work, deadline)
        race_energy = race.energy(simple.powers, simple.idle_power)
        assert race_energy >= simple.min_energy(work, deadline) - 1e-9

    def test_race_infeasible_raises(self, simple):
        with pytest.raises(ValueError):
            simple.race_to_idle(work=60.0, deadline=10.0)

    def test_race_with_explicit_config(self, simple):
        schedule = simple.race_to_idle(work=5.0, deadline=10.0,
                                       race_config=1)
        assert schedule.slots[0].config_index == 1


class TestInfeasibleConstraintError:
    def test_typed_error_with_capacity_attached(self, simple):
        from repro.optimize.lp import InfeasibleConstraintError
        with pytest.raises(InfeasibleConstraintError) as excinfo:
            simple.solve(work=51.0, deadline=10.0)
        assert excinfo.value.max_rate == pytest.approx(5.0)
        assert excinfo.value.required == pytest.approx(5.1)

    def test_subclasses_value_error(self):
        from repro.optimize.lp import InfeasibleConstraintError
        assert issubclass(InfeasibleConstraintError, ValueError)

    def test_exported_from_package(self):
        from repro.optimize import InfeasibleConstraintError
        assert InfeasibleConstraintError is not None

    def test_min_energy_propagates_typed_error(self, simple):
        from repro.optimize.lp import InfeasibleConstraintError
        with pytest.raises(InfeasibleConstraintError):
            simple.min_energy(work=60.0, deadline=10.0)
