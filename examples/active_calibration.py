#!/usr/bin/env python3
"""Uncertainty-guided calibration and model persistence.

Two production concerns beyond the paper's protocol:

1. *Where to sample?*  LEO's posterior variance says which configuration
   a new measurement would teach the most about.  The active calibrator
   seeds with a coarse grid, then chases uncertainty — reaching random
   sampling's accuracy with fewer measurements on adversarial shapes.
2. *Why recalibrate at all?*  The fitted model outlives the process; a
   ModelRegistry versions it so a returning application starts from its
   saved curves.

Run:  python examples/active_calibration.py
"""

import tempfile

import numpy as np

from repro.core.accuracy import accuracy
from repro.experiments.harness import default_context, format_table
from repro.reporting import sparkline
from repro.runtime.active_sampling import ActiveCalibrator
from repro.runtime.controller import RuntimeController
from repro.runtime.sampling import RandomSampler
from repro.estimators.leo import LEOEstimator
from repro.service.registry import ModelRegistry


def load_or_calibrate(registry, app, controller, profile):
    """The newest published model for ``app``, calibrating on a miss.

    Section 6.7's amortization across process lifetimes: the first run
    pays for calibration, every later run starts from the registry.
    """
    estimate = registry.warm_estimate(app, len(controller.space),
                                      controller.estimator.name)
    if estimate is None:
        estimate = controller.calibrate(profile)
        registry.publish(app, estimate)
    return estimate


def main() -> None:
    ctx = default_context(space_kind="paper", seed=0)
    target = "kmeans"
    view = ctx.dataset.leave_one_out(target)
    truth = ctx.truth.leave_one_out(target).true_rates
    profile = ctx.profile(target)

    print(f"Calibrating {target} on {len(ctx.space)} configurations\n")

    rows = []
    for budget in (8, 12, 16, 20):
        calibrator = ActiveCalibrator(
            machine=ctx.machine(seed_offset=50), space=ctx.space,
            prior_rates=view.prior_rates, prior_powers=view.prior_powers,
            seed_count=6, batch_size=2)
        active = calibrator.calibrate(profile, budget)

        controller = RuntimeController(
            machine=ctx.machine(seed_offset=51), space=ctx.space,
            estimator=LEOEstimator(),
            prior_rates=view.prior_rates, prior_powers=view.prior_powers,
            sampler=RandomSampler(seed=1), sample_count=budget)
        passive = controller.calibrate(profile)

        rows.append([budget, accuracy(active.rates, truth),
                     accuracy(passive.rates, truth)])
    print(format_table(
        ["budget", "active accuracy", "random accuracy"], rows,
        title="Active vs random sampling (performance, Eq. 5)"))

    calibrator = ActiveCalibrator(
        machine=ctx.machine(seed_offset=52), space=ctx.space,
        prior_rates=view.prior_rates, prior_powers=view.prior_powers)
    final = calibrator.calibrate(profile, 20)
    print("\nWhere the model remains uncertain (posterior stddev across "
          "the configuration index):")
    print(f"  |{sparkline(final.rate_uncertainty, width=64)}|")
    print(f"  measured {final.indices.size} configurations: "
          f"{sorted(int(i) for i in final.indices)[:10]}...")

    # Persist and reload the model.
    with tempfile.TemporaryDirectory() as tmp:
        registry = ModelRegistry(tmp)
        controller = RuntimeController(
            machine=ctx.machine(seed_offset=53), space=ctx.space,
            estimator=LEOEstimator(),
            prior_rates=view.prior_rates, prior_powers=view.prior_powers,
            sampler=RandomSampler(seed=2))
        first = load_or_calibrate(registry, target, controller, profile)
        clock_after = controller.machine.clock
        again = load_or_calibrate(registry, target, controller, profile)
        version = registry.latest(target, len(ctx.space), "leo").version
        print(f"\nModelRegistry: the first call sampled for "
              f"{first.sampling_time:.0f}s and published it; the second "
              f"loaded version {version} (machine clock unchanged: "
              f"{controller.machine.clock == clock_after}); curves "
              f"identical: {np.array_equal(first.rates, again.rates)}")


if __name__ == "__main__":
    main()
