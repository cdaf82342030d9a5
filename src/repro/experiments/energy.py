"""Energy-minimization experiments: Figures 10 and 11.

Section 6.4's protocol: fix the deadline, sweep the workload W across
100 utilization levels (1-100 % of each application's maximum achievable
work), and measure the energy each approach's runtime actually consumes.
Figure 10 shows the energy-vs-utilization curves for the representative
applications; Figure 11 averages each application's energy across all
utilization levels, normalized to the true optimal.

Each approach calibrates once per application (the paper's "one-time
estimation ... sufficient for the full range of utilizations", Section
6.7) and then runs closed-loop: the controller re-solves the Eq. (1) LP
every quantum from measured progress, which is how every approach meets
its performance goal even from imperfect estimates.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.estimators.registry import create_estimator
from repro.experiments import harness
from repro.experiments.harness import (
    APPROACHES,
    DEADLINE_SECONDS,
    ExperimentContext,
    estimate_curves,
    random_indices,
    sample_target,
)
from repro.optimize.lp import EnergyMinimizer
from repro.runtime.controller import RuntimeController, TradeoffEstimate
from repro.runtime.race_to_idle import RaceToIdleController
from repro.runtime.sampling import RandomSampler

#: Approaches whose energy is reported (beyond the analytic optimum).
ENERGY_APPROACHES = APPROACHES + ("race-to-idle",)


@dataclasses.dataclass
class EnergyCurve:
    """Energy vs utilization for one application.

    Attributes:
        benchmark: Application name.
        utilizations: The demanded utilization grid, in (0, 1].
        energy: ``{approach: [J per utilization]}`` including
            ``"optimal"`` (the analytic Eq.-(1) optimum on true curves).
        met: ``{approach: [bool per utilization]}`` whether the work
            demand was met.
    """

    benchmark: str
    utilizations: np.ndarray
    energy: Dict[str, List[float]]
    met: Dict[str, List[bool]]
    work_fraction: Dict[str, List[float]]

    def normalized_mean(self, approach: str) -> float:
        """Mean over utilizations of normalized energy (Figure 11's bar).

        Energy is charged per unit of work actually completed: an
        approach that misses its demand (the paper's "missed deadlines"
        for estimates below the true frontier) does not get credit for
        the work it skipped.  ``ratio = (E / work_fraction) / E_opt``.
        """
        energy = np.asarray(self.energy[approach])
        fraction = np.clip(np.asarray(self.work_fraction[approach]),
                           1e-6, 1.0)
        ratios = (energy / fraction) / np.asarray(self.energy["optimal"])
        return float(np.mean(ratios))


def _energy_cell(shared, cell) -> EnergyCurve:
    """One benchmark's full utilization sweep, seeded entirely by the
    cell payload.

    Machine state carries across utilization levels *within* a
    benchmark, never across benchmarks.
    """
    ctx, utilizations, sample_count, deadline = shared
    b, name = cell
    profile = ctx.profile(name)
    view = ctx.dataset.leave_one_out(name)
    truth_view = ctx.truth.leave_one_out(name)
    idle = ctx.idle_power()
    true_max = float(truth_view.true_rates.max())

    # One calibration per approach (samples shared across approaches).
    seed = ctx.seed + 7000 + b
    indices = random_indices(len(ctx.space), sample_count, seed)
    rate_obs, power_obs = sample_target(ctx, profile, indices,
                                        seed_offset=seed)
    estimates: Dict[str, TradeoffEstimate] = {}
    for approach in APPROACHES:
        est = estimate_curves(ctx, view, indices, rate_obs, power_obs,
                              approach)
        if est.feasible:
            estimates[approach] = TradeoffEstimate(
                rates=est.rates, powers=est.powers,
                estimator_name=approach)

    optimal = EnergyMinimizer(truth_view.true_rates,
                              truth_view.true_powers, idle)

    energy: Dict[str, List[float]] = {a: [] for a in ENERGY_APPROACHES}
    energy["optimal"] = []
    met: Dict[str, List[bool]] = {a: [] for a in ENERGY_APPROACHES}
    work_fraction: Dict[str, List[float]] = {
        a: [] for a in ENERGY_APPROACHES
    }

    machine = ctx.machine(seed_offset=300 + b)
    for utilization in utilizations:
        work = utilization * true_max * deadline
        energy["optimal"].append(optimal.min_energy(work, deadline))
        for approach in APPROACHES:
            if approach not in estimates:
                energy[approach].append(float("nan"))
                met[approach].append(False)
                work_fraction[approach].append(0.0)
                continue
            controller = RuntimeController(
                machine=machine, space=ctx.space,
                estimator=create_estimator(approach),
                prior_rates=view.prior_rates,
                prior_powers=view.prior_powers,
                sampler=RandomSampler(seed=seed))
            report = controller.run(profile, work, deadline,
                                    estimates[approach])
            energy[approach].append(report.energy)
            met[approach].append(report.met_target)
            work_fraction[approach].append(
                min(report.work_done / work, 1.0))
        racer = RaceToIdleController(machine, ctx.space)
        report = racer.run(profile, work, deadline)
        energy["race-to-idle"].append(report.energy)
        met["race-to-idle"].append(report.met_target)
        work_fraction["race-to-idle"].append(
            min(report.work_done / work, 1.0))

    return EnergyCurve(benchmark=name, utilizations=utilizations,
                       energy=energy, met=met,
                       work_fraction=work_fraction)


def energy_experiment(ctx: Optional[ExperimentContext] = None,
                      benchmarks: Optional[Sequence[str]] = None,
                      num_utilizations: int = 20,
                      sample_count: int = 20,
                      deadline: float = DEADLINE_SECONDS
                      ) -> List[EnergyCurve]:
    """Run the Section 6.4 sweep; one :class:`EnergyCurve` per benchmark."""
    if ctx is None:
        ctx = harness.default_context()
    if num_utilizations < 2:
        raise ValueError(
            f"num_utilizations must be >= 2, got {num_utilizations}"
        )
    names = list(benchmarks) if benchmarks is not None else ctx.benchmark_names
    utilizations = np.linspace(0.05, 1.0, num_utilizations)

    cells = list(enumerate(names))
    shared = (ctx, utilizations, sample_count, deadline)
    with harness.experiment_span("fig10-11", cells=len(cells)):
        return [_energy_cell(shared, cell) for cell in cells]


def summarize_normalized(curves: Sequence[EnergyCurve]
                         ) -> Dict[str, Dict[str, float]]:
    """Figure 11's table: per-benchmark energy normalized to optimal."""
    return {
        curve.benchmark: {
            approach: curve.normalized_mean(approach)
            for approach in ENERGY_APPROACHES
        }
        for curve in curves
    }


def overall_normalized(curves: Sequence[EnergyCurve]) -> Dict[str, float]:
    """Mean normalized energy across benchmarks (the paper's headline:
    LEO 1.06, Online 1.24, Offline 1.29, race-to-idle 1.90)."""
    table = summarize_normalized(curves)
    return harness.summarize_means(table, ENERGY_APPROACHES)
