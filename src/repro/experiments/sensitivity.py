"""Sample-size sensitivity: Figure 12.

The paper varies the number of sampled configurations and plots the
average estimation accuracy across all benchmarks.  Two structural
features must reproduce:

* the online baseline's design matrix is rank deficient below its 15
  coefficients, so it scores "effectively 0 accuracy" there;
* "with 0 samples, LEO behaves as the offline method and its accuracy
  increases with the sample size until it quickly reaches near optimal
  accuracy."

Zero-sample LEO is therefore reported as the offline estimator's score
(the model reduces to the prior mean when the target contributes no
observations).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.experiments import harness
from repro.experiments.harness import (
    ExperimentContext,
    accuracy_scores,
    estimate_curves,
    random_indices,
    sample_target,
)

#: Default sample-size grid; 15 is the online baseline's cliff.
DEFAULT_SIZES: Tuple[int, ...] = (0, 2, 5, 10, 14, 15, 20, 30, 40)

#: Approaches swept by the sensitivity study.
SWEEP_APPROACHES: Tuple[str, ...] = ("leo", "online")


@dataclasses.dataclass
class SensitivityResult:
    """Mean accuracy (over benchmarks) per sample size and approach.

    ``perf[approach]`` and ``power[approach]`` align with ``sizes``.
    """

    sizes: Tuple[int, ...]
    perf: Dict[str, List[float]]
    power: Dict[str, List[float]]
    offline_perf: float
    offline_power: float


def _sensitivity_cell(shared, cell):
    """One (size, benchmark) unit of the Figure 12 sweep, all trials.

    Seeds depend only on the payload.
    """
    ctx, trials = shared
    size, b, name = cell
    view = ctx.dataset.leave_one_out(name)
    truth_view = ctx.truth.leave_one_out(name)
    per_trial = []
    for trial in range(trials):
        seed = ctx.seed + 100_000 + 997 * b + 31 * trial + size
        indices = random_indices(len(ctx.space), size, seed)
        rate_obs, power_obs = sample_target(
            ctx, ctx.profile(name), indices, seed_offset=seed % 4099)
        scores = {}
        for approach in SWEEP_APPROACHES:
            est = estimate_curves(ctx, view, indices,
                                  rate_obs, power_obs, approach)
            scores[approach] = accuracy_scores(est, truth_view)
        per_trial.append(scores)
    return per_trial


def sensitivity_experiment(ctx: Optional[ExperimentContext] = None,
                           sizes: Sequence[int] = DEFAULT_SIZES,
                           benchmarks: Optional[Sequence[str]] = None,
                           trials: int = 1
                           ) -> SensitivityResult:
    """Run the Figure 12 sweep."""
    if ctx is None:
        ctx = harness.default_context()
    if any(size < 0 for size in sizes):
        raise ValueError("sample sizes must be non-negative")
    names = list(benchmarks) if benchmarks is not None else ctx.benchmark_names

    perf: Dict[str, List[float]] = {a: [] for a in SWEEP_APPROACHES}
    power: Dict[str, List[float]] = {a: [] for a in SWEEP_APPROACHES}
    offline_perf_scores: List[float] = []
    offline_power_scores: List[float] = []

    # Size 0 is analytic (LEO degenerates to offline; online cannot
    # run), so only the nonzero (size, benchmark) cells are fitted.
    cells = [(size, b, name) for size in sizes if size > 0
             for b, name in enumerate(names)]
    shared = (ctx, trials)
    with harness.experiment_span("fig12", cells=len(cells)):
        # Offline reference (sample-size independent).
        views = {name: ctx.dataset.leave_one_out(name) for name in names}
        truth_views = {name: ctx.truth.leave_one_out(name)
                       for name in names}
        anchor_indices = {
            name: random_indices(len(ctx.space), 20, ctx.seed + 40 + i)
            for i, name in enumerate(names)
        }
        for name in names:
            idx = anchor_indices[name]
            rate_obs, power_obs = sample_target(
                ctx, ctx.profile(name), idx, seed_offset=ctx.seed + 41)
            est = estimate_curves(ctx, views[name], idx, rate_obs,
                                  power_obs, "offline")
            pa, wa = accuracy_scores(est, truth_views[name])
            offline_perf_scores.append(pa)
            offline_power_scores.append(wa)
        cell_results = {cell[:2]: _sensitivity_cell(shared, cell)
                        for cell in cells}
    offline_perf = float(np.mean(offline_perf_scores))
    offline_power = float(np.mean(offline_power_scores))

    for size in sizes:
        per_perf = {a: [] for a in SWEEP_APPROACHES}
        per_power = {a: [] for a in SWEEP_APPROACHES}
        for b, name in enumerate(names):
            if size == 0:
                for _ in range(trials):
                    per_perf["leo"].append(offline_perf_scores[b])
                    per_power["leo"].append(offline_power_scores[b])
                    per_perf["online"].append(0.0)
                    per_power["online"].append(0.0)
                continue
            for scores in cell_results[(size, b)]:
                for approach in SWEEP_APPROACHES:
                    pa, wa = scores[approach]
                    per_perf[approach].append(pa)
                    per_power[approach].append(wa)
        for approach in SWEEP_APPROACHES:
            perf[approach].append(float(np.mean(per_perf[approach])))
            power[approach].append(float(np.mean(per_power[approach])))

    return SensitivityResult(sizes=tuple(sizes), perf=perf, power=power,
                             offline_perf=offline_perf,
                             offline_power=offline_power)
