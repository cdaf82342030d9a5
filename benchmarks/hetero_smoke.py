"""CI smoke check for the heterogeneous-platform subsystem.

Usage::

    PYTHONPATH=src python benchmarks/hetero_smoke.py

Checks the subsystem's two load-bearing guarantees end to end:

* **Homogeneous degeneracy is bit-identical.**  A single-cluster
  :class:`HeteroTopology` built with ``from_topology`` must reproduce
  the plain homogeneous stack exactly — configuration space, noisy and
  noise-free sweeps, idle power, LEO estimates, and the Eq. 1 LP
  schedule all compare with ``==``, not a tolerance.
* **Hetero-awareness beats the homogeneous-ignorant baseline.**  On a
  three-benchmark fixture of the big.LITTLE node, the pipeline that
  sees the full per-cluster space (with transfer priors) completes the
  same work demand for less effective energy, on average, than the
  baseline confined to the big cluster; and a repeated run is
  bit-identical (fixed-seed determinism).

Kept out of the ``test_*`` namespace on purpose: it is a CI gate over
the whole subsystem, not a figure reproduction.
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from repro.estimators import (  # noqa: E402
    EstimationProblem,
    LEOEstimator,
    normalize_problem,
)
from repro.experiments import hetero_energy as hx  # noqa: E402
from repro.experiments.harness import (  # noqa: E402
    default_context,
    random_indices,
)
from repro.optimize import EnergyMinimizer  # noqa: E402
from repro.platform.config_space import ConfigurationSpace  # noqa: E402
from repro.platform.hetero import (  # noqa: E402
    HeteroMachine,
    HeteroTopology,
    hetero_space,
)
from repro.platform.machine import Machine  # noqa: E402
from repro.platform.topology import PAPER_TOPOLOGY  # noqa: E402

FIXTURE = ("kmeans", "jacobi", "x264")


def check_degeneracy() -> None:
    """Plain stack vs degenerate hetero stack: exact equality."""
    topo = HeteroTopology.from_topology(PAPER_TOPOLOGY)
    space = hetero_space(topo)
    base_space = ConfigurationSpace.paper_space(PAPER_TOPOLOGY)
    assert list(space) == list(base_space), "degenerate space differs"

    ctx = default_context(space_kind="paper", seed=0)
    profile = ctx.profile("kmeans")
    base = Machine(PAPER_TOPOLOGY, seed=123)
    het = HeteroMachine(topo, seed=123)
    assert het.idle_power() == base.idle_power(), "idle power differs"
    for noisy in (False, True):
        r0, p0 = base.sweep(profile, base_space, noisy=noisy)
        r1, p1 = het.sweep(profile, space, noisy=noisy)
        assert np.array_equal(r0, r1), f"rates differ (noisy={noisy})"
        assert np.array_equal(p0, p1), f"powers differ (noisy={noisy})"

    # Estimates and the LP schedule through both stacks, bit for bit.
    view = ctx.dataset.leave_one_out("kmeans")
    indices = random_indices(len(base_space), 24, 7)
    r_obs, _ = base.sweep(profile, base_space, noisy=False)
    observed = r_obs[indices]
    curves = []
    for sp in (base_space, space):
        problem = EstimationProblem(
            features=sp.feature_matrix(), prior=view.prior_rates,
            observed_indices=indices, observed_values=observed)
        normalized, scale = normalize_problem(problem)
        curves.append(LEOEstimator().estimate(normalized) * scale)
    assert np.array_equal(curves[0], curves[1]), "estimates differ"
    truth_r, truth_p = base.sweep(profile, base_space, noisy=False)
    work = 0.5 * float(truth_r.max()) * 20.0
    schedules = [
        EnergyMinimizer(curve, truth_p, base.idle_power()).solve(work, 20.0)
        for curve in curves
    ]
    pairs = [[(s.config_index, s.duration) for s in sch]
             for sch in schedules]
    assert pairs[0] == pairs[1], "LP schedules differ"
    print("degeneracy: space, sweeps, idle, estimates, LP bit-identical")


def check_hetero_beats_baseline() -> None:
    """Hetero-aware wins on effective energy; runs are deterministic."""
    setup = hx.build_setup(benchmarks=FIXTURE)
    runs = hx.hetero_energy_experiment(benchmarks=FIXTURE, setup=setup)
    again = hx.hetero_energy_experiment(benchmarks=FIXTURE, setup=setup)
    assert [dataclass_tuple(r) for r in runs] == \
        [dataclass_tuple(r) for r in again], "repeat-run nondeterminism"
    savings = hx.savings_summary(runs)
    assert set(savings) == set(FIXTURE), sorted(savings)
    for name, value in sorted(savings.items()):
        print(f"{name:<10} savings={100.0 * value:5.1f}%")
    mean = float(np.mean(list(savings.values())))
    print(f"mean savings {100.0 * mean:.1f}%")
    assert mean > 0.0, (
        f"hetero-aware pipeline did not beat the baseline: {savings}")


def dataclass_tuple(run: hx.HeteroRun) -> tuple:
    return (run.benchmark, run.mode, run.energy, run.work_target,
            run.work_done, run.met_deadline, run.space_size)


def check_cap_allocation() -> None:
    """Joint water-filling across clusters is never worse than static."""
    for run in hx.hetero_cap_allocation():
        print(f"cap={run.cap_watts:5.0f}W joint={run.joint_watts:6.1f}W "
              f"({run.joint_feasible} ok, {run.joint_mode}) "
              f"static={run.static_watts:6.1f}W ({run.static_feasible} ok)")
        if run.joint_mode != "proportional":
            assert run.joint_feasible >= run.static_feasible, (
                f"joint kept fewer tenants feasible at {run.cap_watts}W")


def main() -> int:
    check_degeneracy()
    check_hetero_beats_baseline()
    check_cap_allocation()
    print("hetero smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
