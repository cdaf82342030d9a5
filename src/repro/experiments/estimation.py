"""Estimation-accuracy experiments: Figures 5, 6, 7 and 8.

Figure 5 compares performance-estimation accuracy (Eq. 5) across the 25
benchmarks for LEO, the online baseline and the offline baseline, all
against exhaustive-search truth; Figure 6 does the same for power.
The paper's protocol (Section 6.3): 20 randomly sampled configurations
per trial, accuracies averaged over 10 independent trials, priors from
the other 24 applications (leave-one-out).

Figures 7 and 8 are the per-configuration estimate curves for the three
representative applications (kmeans, swish, x264), whose saw-tooth shape
comes from the configuration-index flattening.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.experiments import harness
from repro.experiments.harness import (
    APPROACHES,
    CurveEstimate,
    ExperimentContext,
    accuracy_scores,
    estimate_curves,
    random_indices,
    sample_target,
)

#: The representative applications of Figures 7-10.
REPRESENTATIVES: Tuple[str, ...] = ("kmeans", "swish", "x264")


@dataclasses.dataclass
class AccuracyResult:
    """Per-benchmark, per-approach Eq. (5) accuracies.

    Attributes:
        perf: ``{benchmark: {approach: accuracy}}`` for performance.
        power: Same for power.
        sample_count: Configurations sampled per trial.
        trials: Trials averaged per benchmark.
    """

    perf: Dict[str, Dict[str, float]]
    power: Dict[str, Dict[str, float]]
    sample_count: int
    trials: int

    def mean_perf(self) -> Dict[str, float]:
        """Per-approach mean performance accuracy across benchmarks."""
        return harness.summarize_means(self.perf, APPROACHES)

    def mean_power(self) -> Dict[str, float]:
        """Per-approach mean power accuracy across benchmarks."""
        return harness.summarize_means(self.power, APPROACHES)


def _accuracy_cell(shared, cell) -> Dict[str, Tuple[float, float]]:
    """One (benchmark, trial) unit of the Figure 5/6 protocol.

    The seed is fully determined by the cell payload, so the result
    does not depend on which cells ran before it.
    """
    ctx, sample_count = shared
    b, name, trial = cell
    view = ctx.dataset.leave_one_out(name)
    truth_view = ctx.truth.leave_one_out(name)
    seed = ctx.seed + 1000 * (b + 1) + trial
    indices = random_indices(len(ctx.space), sample_count, seed)
    rate_obs, power_obs = sample_target(
        ctx, ctx.profile(name), indices, seed_offset=seed % 7919)
    scores = {}
    for approach in APPROACHES:
        estimate = estimate_curves(
            ctx, view, indices, rate_obs, power_obs, approach)
        scores[approach] = accuracy_scores(estimate, truth_view)
    return scores


def accuracy_experiment(ctx: Optional[ExperimentContext] = None,
                        sample_count: int = 20,
                        trials: int = 3,
                        benchmarks: Optional[Sequence[str]] = None
                        ) -> AccuracyResult:
    """Run the Figure 5/6 protocol and return the accuracy tables."""
    if ctx is None:
        ctx = harness.default_context()
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    names = list(benchmarks) if benchmarks is not None else ctx.benchmark_names

    cells = [(b, name, trial)
             for b, name in enumerate(names) for trial in range(trials)]
    shared = (ctx, sample_count)
    with harness.experiment_span("fig5-6", cells=len(cells)):
        cell_scores = [_accuracy_cell(shared, cell) for cell in cells]

    perf: Dict[str, Dict[str, float]] = {}
    power: Dict[str, Dict[str, float]] = {}
    for name in names:
        perf_acc = {a: [] for a in APPROACHES}
        power_acc = {a: [] for a in APPROACHES}
        for (_, cell_name, _), scores in zip(cells, cell_scores):
            if cell_name != name:
                continue
            for approach in APPROACHES:
                pa, wa = scores[approach]
                perf_acc[approach].append(pa)
                power_acc[approach].append(wa)
        perf[name] = {a: float(np.mean(v)) for a, v in perf_acc.items()}
        power[name] = {a: float(np.mean(v)) for a, v in power_acc.items()}
    return AccuracyResult(perf=perf, power=power,
                          sample_count=sample_count, trials=trials)


@dataclasses.dataclass
class ExampleCurves:
    """Figure 7/8 data for one application."""

    benchmark: str
    true_rates: np.ndarray
    true_powers: np.ndarray
    sampled_indices: np.ndarray
    estimates: Dict[str, CurveEstimate]

    def peak_rate_config(self, approach: str) -> int:
        """Configuration index of the estimated performance peak."""
        est = self.estimates[approach]
        if est.rates is None:
            raise ValueError(f"{approach} produced no estimate")
        return int(np.argmax(est.rates))


def example_curves(ctx: Optional[ExperimentContext] = None,
                   benchmarks: Sequence[str] = REPRESENTATIVES,
                   sample_count: int = 20,
                   approaches: Sequence[str] = APPROACHES
                   ) -> List[ExampleCurves]:
    """Full estimate curves for the representative applications."""
    if ctx is None:
        ctx = harness.default_context()
    results = []
    for b, name in enumerate(benchmarks):
        view = ctx.dataset.leave_one_out(name)
        truth_view = ctx.truth.leave_one_out(name)
        seed = ctx.seed + 50 + b
        indices = random_indices(len(ctx.space), sample_count, seed)
        rate_obs, power_obs = sample_target(
            ctx, ctx.profile(name), indices, seed_offset=seed)
        estimates = {
            approach: estimate_curves(
                ctx, view, indices, rate_obs, power_obs, approach)
            for approach in approaches
        }
        results.append(ExampleCurves(
            benchmark=name,
            true_rates=truth_view.true_rates,
            true_powers=truth_view.true_powers,
            sampled_indices=indices,
            estimates=estimates,
        ))
    return results
