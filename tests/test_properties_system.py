"""Property-based tests over the whole simulated system.

Where ``test_properties.py`` pins down the core data structures, these
properties quantify over *applications*: for any profile the generator
can produce, the platform models, the frontier, and the LP must satisfy
the physical and mathematical invariants the runtime relies on.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.optimize.lp import EnergyMinimizer
from repro.optimize.pareto import TradeoffFrontier, pareto_optimal_mask
from repro.optimize.schedule import Schedule, Slot
from repro.platform.config_space import ConfigurationSpace
from repro.platform.machine import Machine
from repro.platform.topology import PAPER_TOPOLOGY
from repro.runtime.race_to_idle import all_resources_config
from repro.workloads.generator import ProfileGenerator

SPACE = ConfigurationSpace.cores_only()
MACHINE = Machine(PAPER_TOPOLOGY)


def _profile_from_seed(seed: int):
    return ProfileGenerator(seed=seed).sample()


class TestPlatformInvariants:
    @settings(deadline=None, max_examples=30)
    @given(st.integers(0, 10_000))
    def test_rates_positive_and_finite(self, seed):
        profile = _profile_from_seed(seed)
        rates = np.array([MACHINE.true_rate(profile, c) for c in SPACE])
        assert np.all(rates > 0)
        assert np.all(np.isfinite(rates))

    @settings(deadline=None, max_examples=30)
    @given(st.integers(0, 10_000))
    def test_power_within_physical_envelope(self, seed):
        profile = _profile_from_seed(seed)
        idle = MACHINE.idle_power()
        for config in SPACE:
            power = MACHINE.true_power(profile, config)
            assert idle < power < 500.0

    @settings(deadline=None, max_examples=30)
    @given(st.integers(0, 10_000))
    def test_single_thread_never_fastest_overall(self, seed):
        """More resources help at least somewhere: one logical CPU is
        never the unique global performance peak."""
        profile = _profile_from_seed(seed)
        rates = np.array([MACHINE.true_rate(profile, c) for c in SPACE])
        assert np.argmax(rates) != 0 or np.isclose(rates[0], rates.max())

    @settings(deadline=None, max_examples=20)
    @given(st.integers(0, 10_000))
    def test_peak_related_to_profile_peak(self, seed):
        """Sharp contention pins the rate peak near scaling_peak.

        For near-linear speedup S(t) ~ t, the rate t / (1 + s(t - p))
        decreases past p exactly when s * p > 1, so the optimum cannot
        sit far beyond the profile's scaling peak in that regime.
        """
        profile = _profile_from_seed(seed)
        rates = np.array([MACHINE.true_rate(profile, c) for c in SPACE])
        best_threads = SPACE[int(np.argmax(rates))].threads
        product = profile.contention_slope * profile.scaling_peak
        if product > 1.5:
            assert best_threads <= profile.scaling_peak + 2


class TestEndToEndLPInvariants:
    @settings(deadline=None, max_examples=20)
    @given(st.integers(0, 10_000),
           st.floats(min_value=0.05, max_value=1.0))
    def test_lp_feasible_for_any_generated_app(self, seed, utilization):
        profile = _profile_from_seed(seed)
        rates = np.array([MACHINE.true_rate(profile, c) for c in SPACE])
        powers = np.array([MACHINE.true_power(profile, c) for c in SPACE])
        minimizer = EnergyMinimizer(rates, powers, MACHINE.idle_power())
        deadline = 50.0
        work = utilization * minimizer.max_rate * deadline
        schedule = minimizer.solve(work, deadline)
        assert schedule.work(rates) == pytest.approx(work, rel=1e-6)
        energy = minimizer.min_energy(work, deadline)
        # Bounded by idling the window and by racing flat out.
        assert energy >= MACHINE.idle_power() * deadline * (1 - 1e-9)
        assert energy <= powers.max() * deadline * (1 + 1e-9)

    @settings(deadline=None, max_examples=20)
    @given(st.integers(0, 10_000),
           st.floats(min_value=0.05, max_value=0.95))
    def test_race_never_beats_lp(self, seed, utilization):
        profile = _profile_from_seed(seed)
        rates = np.array([MACHINE.true_rate(profile, c) for c in SPACE])
        powers = np.array([MACHINE.true_power(profile, c) for c in SPACE])
        idle = MACHINE.idle_power()
        minimizer = EnergyMinimizer(rates, powers, idle)
        deadline = 50.0
        race_index = SPACE.index_of(all_resources_config(SPACE))
        work = utilization * rates[race_index] * deadline
        race = minimizer.race_to_idle(work, deadline, race_index)
        assert (race.energy(powers, idle)
                >= minimizer.min_energy(work, deadline) - 1e-6)

    @settings(deadline=None, max_examples=20)
    @given(st.integers(0, 10_000))
    def test_pareto_front_nonempty_and_contains_peak(self, seed):
        profile = _profile_from_seed(seed)
        rates = np.array([MACHINE.true_rate(profile, c) for c in SPACE])
        powers = np.array([MACHINE.true_power(profile, c) for c in SPACE])
        mask = pareto_optimal_mask(rates, powers)
        assert mask.any()
        # The max-rate config is undominated (nothing is faster).
        fastest = np.flatnonzero(rates == rates.max())
        assert mask[fastest].any()

    @settings(deadline=None, max_examples=20)
    @given(st.integers(0, 10_000))
    def test_hull_vertices_are_pareto_optimal(self, seed):
        profile = _profile_from_seed(seed)
        rates = np.array([MACHINE.true_rate(profile, c) for c in SPACE])
        powers = np.array([MACHINE.true_power(profile, c) for c in SPACE])
        mask = pareto_optimal_mask(rates, powers)
        frontier = TradeoffFrontier(rates, powers, MACHINE.idle_power())
        for vertex in frontier.vertices:
            if vertex.config_index is not None:
                assert mask[vertex.config_index]


class TestScheduleProperties:
    @settings(deadline=None, max_examples=40)
    @given(st.lists(
        st.tuples(st.one_of(st.none(), st.integers(0, 9)),
                  st.floats(min_value=0.0, max_value=100.0,
                            allow_nan=False)),
        min_size=0, max_size=8))
    def test_schedule_accounting_identities(self, slot_specs):
        schedule = Schedule([Slot(c, d) for c, d in slot_specs])
        rates = np.arange(1.0, 11.0)
        powers = np.linspace(100.0, 300.0, 10)
        idle = 50.0
        assert schedule.busy_time <= schedule.total_time + 1e-9
        assert schedule.work(rates) >= 0
        energy = schedule.energy(powers, idle)
        lo = min(idle, powers.min()) * schedule.total_time
        hi = max(idle, powers.max()) * schedule.total_time
        assert lo - 1e-6 <= energy <= hi + 1e-6
