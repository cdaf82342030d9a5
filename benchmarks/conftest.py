"""Shared fixtures for the paper-reproduction benchmarks.

Each ``test_fig*`` / ``test_sec*`` file regenerates one table or figure
of the paper (see DESIGN.md section 4).  Expensive experiment runs are
session-scoped fixtures so figures sharing data (5/6, 7/8, 10/11) pay
for it once; the ``benchmark`` fixture times a representative kernel of
each experiment.

Scale with ``REPRO_BENCH_SCALE`` (default 1.0): trials, utilization-grid
density and benchmark counts shrink or grow proportionally.  Results
are printed as aligned tables (run pytest with ``-s`` to see them) and
saved as JSON under ``benchmarks/results/``.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.experiments import harness
from repro.experiments.dynamic import dynamic_experiment
from repro.experiments.energy import energy_experiment
from repro.experiments.estimation import accuracy_experiment, example_curves
from repro.experiments.harness import default_context, scaled
from repro.experiments.sensitivity import sensitivity_experiment

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Paper-reported headline numbers, for side-by-side printing.
PAPER = {
    "fig5_perf_accuracy": {"leo": 0.97, "online": 0.87, "offline": 0.68},
    "fig6_power_accuracy": {"leo": 0.98, "online": 0.85, "offline": 0.89},
    "fig11_energy": {"leo": 1.06, "online": 1.24, "offline": 1.29,
                     "race-to-idle": 1.90},
    "table1": {"leo": [1.045, 1.005, 1.028],
               "offline": [1.169, 1.275, 1.216],
               "online": [1.325, 1.248, 1.291]},
    "sec67_fit_seconds": 0.8,
    "sec67_energy_joules": 178.5,
}


def save_results(name: str, payload) -> pathlib.Path:
    """Persist a benchmark's reproduced numbers as JSON."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.json"
    path.write_text(json.dumps(payload, indent=2, default=float))
    return path


@pytest.fixture(scope="session")
def full_ctx():
    """The paper-scale context: 1024 configs, 25 benchmarks."""
    return default_context(space_kind="paper", seed=0)


@pytest.fixture(scope="session")
def cores_ctx():
    """The Section 2 context: 32 core-allocation configs."""
    return default_context(space_kind="cores", seed=0)


@pytest.fixture(scope="session")
def accuracy_result(full_ctx):
    """Figures 5 and 6: accuracy across all 25 benchmarks."""
    return accuracy_experiment(full_ctx, sample_count=20,
                               trials=scaled(3))


@pytest.fixture(scope="session")
def examples_result(full_ctx):
    """Figures 7 and 8: full curves for kmeans, swish, x264."""
    return example_curves(full_ctx, sample_count=20)


@pytest.fixture(scope="session")
def energy_curves(full_ctx):
    """Figures 10 and 11: energy sweep for all 25 benchmarks."""
    return energy_experiment(full_ctx,
                             num_utilizations=scaled(15, minimum=4))


@pytest.fixture(scope="session")
def sensitivity_result(full_ctx):
    """Figure 12: sample-size sweep averaged across benchmarks."""
    names = full_ctx.benchmark_names[:scaled(25, minimum=5)]
    return sensitivity_experiment(
        full_ctx, sizes=(0, 2, 5, 10, 14, 15, 20, 30, 40),
        benchmarks=names)


@pytest.fixture(scope="session")
def dynamic_result(full_ctx):
    """Figure 13 / Table 1: the fluidanimate two-phase run."""
    return dynamic_experiment(full_ctx, phase_seconds=30.0)


@pytest.fixture(scope="session")
def bench_table():
    """The shared table formatter (indirection for bench files)."""
    return harness.format_table
