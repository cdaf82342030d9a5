"""Shared infrastructure for the paper-reproduction experiments.

Every figure/table module builds on the same pieces:

* an :class:`ExperimentContext` — one simulated platform, one workload
  suite, the noisy offline dataset (what estimators see as priors) and
  the noise-free exhaustive-search dataset (the ground truth accuracy is
  scored against);
* :func:`sample_target` — measure the target application at a sampled
  subset of configurations, as the runtime's calibration phase does;
* :func:`estimate_curves` — run one named approach on those samples and
  return absolute rate/power curves.

Performance curves are pooled across applications in normalized space
(see :func:`repro.estimators.base.normalize_problem`): the paper reports
performance "measured as speedup", and raw heartbeat rates span four
orders of magnitude across the suite.  Every approach receives the same
samples and has its absolute scale anchored by the same observed mean,
so accuracy differences reflect *shape* estimation — which is what the
paper's Figures 5-8 compare.

Experiment scale (trials, utilization grid density) honours the
``REPRO_BENCH_SCALE`` environment variable: 1.0 is the default scale,
smaller is faster/coarser, larger is slower/tighter.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import logging
import os
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.accuracy import accuracy
from repro.obs import Span, get_observability
from repro.estimators.base import (
    EstimationProblem,
    InsufficientSamplesError,
    normalize_problem,
)
from repro.estimators.registry import create_estimator
from repro.platform.config_space import ConfigurationSpace
from repro.platform.machine import Machine
from repro.workloads.profile import ApplicationProfile
from repro.workloads.suite import paper_suite
from repro.workloads.traces import LeaveOneOut, OfflineDataset

#: The approaches compared throughout Section 6 (race-to-idle and the
#: exhaustive oracle are handled specially — they estimate nothing).
APPROACHES: Tuple[str, ...] = ("leo", "online", "offline")

#: Deadline used by the energy experiments (seconds).  The paper fixes
#: the deadline and varies the workload (Section 6.4).
DEADLINE_SECONDS = 100.0

logger = logging.getLogger(__name__)


@contextlib.contextmanager
def experiment_span(name: str, **attributes: object) -> Iterator[Span]:
    """An ``experiment.run`` span for one figure/table reproduction.

    Wraps the ambient tracer so every benchmark module marks its work the
    same way (``experiment.run`` with an ``experiment`` attribute naming
    the figure); a no-op span when tracing is disabled.  Also logs the
    start at debug level so long sweeps are followable.
    """
    logger.debug("experiment started",
                 extra={"fields": {"experiment": name, **attributes}})
    with get_observability().tracer.span("experiment.run", experiment=name,
                                         **attributes) as span:
        yield span


def bench_scale() -> float:
    """Scale factor for experiment sizes, from ``REPRO_BENCH_SCALE``."""
    raw = os.environ.get("REPRO_BENCH_SCALE", "1.0")
    try:
        scale = float(raw)
    except ValueError as exc:
        raise ValueError(f"REPRO_BENCH_SCALE must be a float, got {raw!r}") from exc
    if scale <= 0:
        raise ValueError(f"REPRO_BENCH_SCALE must be positive, got {scale}")
    return scale


def scaled(count: int, minimum: int = 1) -> int:
    """``count`` adjusted by the bench scale, floored at ``minimum``."""
    return max(int(round(count * bench_scale())), minimum)


@dataclasses.dataclass(frozen=True)
class ExperimentContext:
    """One platform + suite + datasets, shared by the experiments.

    Attributes:
        space: The configuration space under study.
        suite: The application profiles (paper's 25 benchmarks).
        dataset: Noisy offline profiling tables — the estimators' priors.
        truth: Noise-free exhaustive-search tables — the ground truth.
        seed: Base seed; derived seeds offset from it.
    """

    space: ConfigurationSpace
    suite: Tuple[ApplicationProfile, ...]
    dataset: OfflineDataset
    truth: OfflineDataset
    seed: int

    @property
    def features(self) -> np.ndarray:
        return self.space.feature_matrix()

    @property
    def benchmark_names(self) -> List[str]:
        return [p.name for p in self.suite]

    def profile(self, name: str) -> ApplicationProfile:
        """Look up one suite profile by benchmark name."""
        for p in self.suite:
            if p.name == name:
                return p
        raise KeyError(f"unknown benchmark {name!r}")

    def machine(self, seed_offset: int = 0) -> Machine:
        """A fresh machine with a seed derived from the context's."""
        return Machine(self.space.topology, seed=self.seed + seed_offset)

    def idle_power(self) -> float:
        """System idle power of the context's platform (W)."""
        return self.machine().idle_power()


def _standard_space(space_kind: str) -> ConfigurationSpace:
    """A new standard configuration space, ``"paper"`` or ``"cores"``."""
    if space_kind == "paper":
        return ConfigurationSpace.paper_space()
    if space_kind == "cores":
        return ConfigurationSpace.cores_only()
    raise ValueError(f"space_kind must be 'paper' or 'cores', got {space_kind!r}")


@functools.lru_cache(maxsize=None)
def space_size(space_kind: str = "paper") -> int:
    """Configurations in a standard space, without building a context."""
    return len(_standard_space(space_kind))


@functools.lru_cache(maxsize=4)
def default_context(space_kind: str = "paper", seed: int = 0
                    ) -> ExperimentContext:
    """The cached standard context (paper space, paper suite).

    Building the datasets sweeps 25 applications over the full space
    twice (noisy priors + clean truth); caching keeps that cost to once
    per process.
    """
    space = _standard_space(space_kind)
    suite = tuple(paper_suite())
    collector = Machine(space.topology, seed=seed + 1)
    dataset = OfflineDataset.collect(collector, suite, space, noisy=True)
    oracle = Machine(space.topology, seed=seed + 2)
    truth = OfflineDataset.collect(oracle, suite, space, noisy=False)
    return ExperimentContext(space=space, suite=suite, dataset=dataset,
                             truth=truth, seed=seed)


# ----------------------------------------------------------------------
# Target sampling and estimation
# ----------------------------------------------------------------------
def sample_target(ctx: ExperimentContext, profile: ApplicationProfile,
                  indices: np.ndarray, window: float = 1.0,
                  seed_offset: int = 100) -> Tuple[np.ndarray, np.ndarray]:
    """Measure ``profile`` at the given configuration indices.

    Returns ``(rates, powers)`` observations with machine noise, the
    runtime's calibration measurements.
    """
    machine = ctx.machine(seed_offset)
    machine.load(profile)
    rates = np.empty(indices.size)
    powers = np.empty(indices.size)
    for j, i in enumerate(indices):
        machine.apply(ctx.space[int(i)])
        m = machine.run_for(window)
        rates[j], powers[j] = m.rate, m.system_power
    return rates, powers


@dataclasses.dataclass(frozen=True)
class CurveEstimate:
    """One approach's absolute rate and power curve estimates."""

    approach: str
    rates: Optional[np.ndarray]
    powers: Optional[np.ndarray]

    @property
    def feasible(self) -> bool:
        """False when the approach could not produce an estimate."""
        return self.rates is not None and self.powers is not None


def estimate_curves(ctx: ExperimentContext, view: LeaveOneOut,
                    indices: np.ndarray, rate_obs: np.ndarray,
                    power_obs: np.ndarray, approach: str,
                    **estimator_kwargs) -> CurveEstimate:
    """Run one approach on the samples; None curves when ill-posed."""
    estimator = create_estimator(approach, **estimator_kwargs)
    features = ctx.features
    try:
        rate_problem = EstimationProblem(
            features=features, prior=view.prior_rates,
            observed_indices=indices, observed_values=rate_obs)
        normalized, scale = normalize_problem(rate_problem)
        rates = estimator.estimate(normalized) * scale

        power_problem = EstimationProblem(
            features=features, prior=view.prior_powers,
            observed_indices=indices, observed_values=power_obs)
        powers = estimator.estimate(power_problem)
    except InsufficientSamplesError:
        return CurveEstimate(approach=approach, rates=None, powers=None)

    floor_r = 1e-3 * float(rate_obs.min())
    floor_p = 1e-3 * float(power_obs.min())
    return CurveEstimate(
        approach=approach,
        rates=np.maximum(rates, max(floor_r, 1e-12)),
        powers=np.maximum(powers, max(floor_p, 1e-12)),
    )


def accuracy_scores(estimate: CurveEstimate, view: LeaveOneOut
                    ) -> Tuple[float, float]:
    """Eq. (5) accuracy of (performance, power) against the truth.

    An infeasible estimate scores 0 on both, matching the paper's
    treatment of the rank-deficient online regression ("effectively 0
    accuracy", Figure 12).
    """
    if not estimate.feasible:
        return 0.0, 0.0
    return (accuracy(estimate.rates, view.true_rates),
            accuracy(estimate.powers, view.true_powers))


def random_indices(num_configs: int, count: int, seed: int) -> np.ndarray:
    """Sorted distinct random configuration indices."""
    rng = np.random.default_rng(seed)
    return np.sort(rng.choice(num_configs, size=count, replace=False))


# ----------------------------------------------------------------------
# Small text-table rendering shared by the benchmark printouts
# ----------------------------------------------------------------------
def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]],
                 title: str = "") -> str:
    """Render an aligned monospace table (the benches print these)."""
    cells = [[str(h) for h in headers]]
    cells += [[_fmt(v) for v in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(cells[0], widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells[1:]:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def summarize_means(per_benchmark: Dict[str, Dict[str, float]],
                    approaches: Sequence[str]) -> Dict[str, float]:
    """Mean of each approach's score across benchmarks."""
    return {
        approach: float(np.mean([
            scores[approach] for scores in per_benchmark.values()
        ]))
        for approach in approaches
    }
