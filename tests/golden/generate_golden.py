"""Regenerate the golden numerical-regression fixtures.

Usage (from the repository root)::

    PYTHONPATH=src python tests/golden/generate_golden.py [NAME ...]

With fixture names (``em_subspace_niw``, ``leo_estimate``, ``hull_lp``,
``run_loops``, ...) only those are rewritten; without, every fixture is.

The fixtures pin down the numerical behaviour of the EM engine, the
Pareto/hull geometry and the Eq. (1) LP *before* any hot-path
optimisation: ``tests/test_golden_regression.py`` asserts that the
current code reproduces these arrays to ``rtol=1e-9``.  They were first
captured against the serial, unbatched implementation, so any batched or
cached rewrite of the same math is provably behaviour-preserving;
``em_subspace_niw`` (n = 256, fit subspace r = 72) was captured with the
n-dimensional Woodbury E-step, before the subspace E-step replaced it.

``run_loops.json`` pins the five runtime loops — the LEO controller
(with and without phase adaptation), race-to-idle, the ondemand
governor (also on the paper space, whose speed ladder its policy
walks), the hull rate controller and the cluster coordinator under each
policy — plus two mid-run controller checkpoint payloads (one holding
phase-detector progress, one a set of visited configurations) and the
reports of those runs.  Every loop is driven by ``offline`` estimates,
so no EM enters it; ``tests/test_run_loops_golden.py`` checks it.

Only regenerate them when the *intended* numerics change (a new model,
a different convergence rule), never to make an optimisation pass.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import sys

import numpy as np

from repro.cluster import ClusterCoordinator, Tenant
from repro.cluster.partition import PartitionedMachine
from repro.core.em import EMConfig, EMEngine
from repro.core.observation import ObservationSet
from repro.core.priors import NIWPrior
from repro.estimators.leo import LEOEstimator
from repro.estimators.base import EstimationProblem
from repro.estimators.offline import OfflineEstimator
from repro.optimize.lp import EnergyMinimizer
from repro.optimize.pareto import TradeoffFrontier, pareto_optimal_mask
from repro.platform.config_space import ConfigurationSpace
from repro.platform.machine import Machine
from repro.platform.topology import PAPER_TOPOLOGY
from repro.runtime.controller import RuntimeController
from repro.runtime.feedback import HullRateController
from repro.runtime.governor import OndemandGovernor
from repro.runtime.race_to_idle import RaceToIdleController
from repro.runtime.sampling import RandomSampler
from repro.workloads.suite import get_benchmark, paper_suite
from repro.workloads.traces import OfflineDataset

HERE = pathlib.Path(__file__).parent


def _spd_covariance(rng: np.random.Generator, n: int) -> np.ndarray:
    """A well-conditioned random SPD matrix with unit-scale diagonal."""
    a = rng.standard_normal((n, n))
    return a @ a.T / n + 0.5 * np.eye(n)


def make_observation_set(seed: int, num_apps: int, num_configs: int,
                         layout: str) -> ObservationSet:
    """Seeded synthetic data in one of the fixture layouts.

    ``"paper"`` mimics the paper's setting (fully observed priors plus a
    sparse target row); ``"multimask"`` gives three distinct observation
    masks shared across the applications, exercising the mask-group
    batching in the E-step; ``"subspace"`` is the paper layout at a
    scale where the fit's subspace is much smaller than the space: a
    20-coordinate target plus one partially observed prior row.
    """
    rng = np.random.default_rng(seed)
    sigma = _spd_covariance(rng, num_configs)
    chol = np.linalg.cholesky(sigma)
    mu = rng.normal(scale=2.0, size=num_configs)
    curves = mu + rng.standard_normal((num_apps, num_configs)) @ chol.T
    values = curves + 0.1 * rng.standard_normal(curves.shape)

    mask = np.ones((num_apps, num_configs), dtype=bool)
    if layout == "paper":
        target_idx = np.sort(rng.choice(num_configs, size=5, replace=False))
        mask[-1] = False
        mask[-1, target_idx] = True
    elif layout == "multimask":
        patterns = []
        for _ in range(3):
            k = int(rng.integers(3, num_configs))
            idx = np.sort(rng.choice(num_configs, size=k, replace=False))
            pattern = np.zeros(num_configs, dtype=bool)
            pattern[idx] = True
            patterns.append(pattern)
        for i in range(num_apps):
            mask[i] = patterns[i % len(patterns)]
    elif layout == "subspace":
        target_idx = rng.choice(num_configs, size=20, replace=False)
        mask[-1] = False
        mask[-1, target_idx] = True
        partial_idx = rng.choice(num_configs, size=num_configs // 8,
                                 replace=False)
        mask[-2] = False
        mask[-2, partial_idx] = True
    else:
        raise ValueError(f"unknown layout {layout!r}")
    return ObservationSet(values, mask)


#: The EM fixture cases: name -> (seed, M, n, layout, prior?, woodbury).
EM_CASES = {
    "em_paper_ml": (7, 9, 12, "paper", False, True),
    "em_paper_niw": (7, 9, 12, "paper", True, True),
    "em_multimask_niw": (21, 9, 10, "multimask", True, True),
    "em_paper_dense": (7, 6, 8, "paper", True, False),
    "em_subspace_niw": (31, 25, 256, "subspace", True, True),
}


def generate_em(names=None) -> None:
    for name, (seed, m, n, layout, use_prior, woodbury) in EM_CASES.items():
        if names is not None and name not in names:
            continue
        obs = make_observation_set(seed, m, n, layout)
        prior = NIWPrior.paper_default() if use_prior else None
        engine = EMEngine(prior=prior,
                          config=EMConfig(max_iterations=25, tol=1e-8,
                                          use_woodbury=woodbury))
        result = engine.fit(obs)
        np.savez_compressed(
            HERE / f"{name}.npz",
            values=obs.values, mask=obs.mask,
            mu=result.mu, sigma_mat=result.sigma_mat,
            noise_var=np.float64(result.noise_var),
            zhat=result.zhat, zvar=result.zvar,
            loglik_history=np.asarray(result.loglik_history),
            iterations=np.int64(result.iterations),
            converged=np.bool_(result.converged),
        )


def generate_leo() -> None:
    """An end-to-end LEO estimate on a synthetic problem."""
    rng = np.random.default_rng(1234)
    n, m_prior = 24, 10
    features = rng.uniform(0.5, 4.0, size=(n, 4))
    base = np.linspace(1.0, 6.0, n)
    prior = base * rng.uniform(0.7, 1.3, size=(m_prior, 1))
    prior += 0.1 * rng.standard_normal(prior.shape)
    truth = base * 1.1
    idx = np.sort(rng.choice(n, size=8, replace=False))
    observed = truth[idx] + 0.05 * rng.standard_normal(idx.size)
    problem = EstimationProblem(features=features, prior=prior,
                                observed_indices=idx,
                                observed_values=observed)
    curve = LEOEstimator().estimate(problem)
    np.savez_compressed(HERE / "leo_estimate.npz",
                        features=features, prior=prior, indices=idx,
                        observed=observed, curve=curve)


def generate_hull_lp() -> None:
    rng = np.random.default_rng(99)
    n = 64
    rates = rng.uniform(0.5, 40.0, size=n)
    powers = 5.0 + 2.0 * rates ** 0.8 + rng.uniform(0.0, 8.0, size=n)
    idle = 4.0
    frontier = TradeoffFrontier(rates, powers, idle_power=idle)
    verts = np.array([[v.rate, v.power,
                       -1 if v.config_index is None else v.config_index]
                      for v in frontier.vertices])
    mask = pareto_optimal_mask(rates, powers)

    deadline = 50.0
    works, energies, slot_tables = [], [], []
    for mode in ("deadline-energy", "active-energy"):
        minimizer = EnergyMinimizer(rates, powers, idle, mode=mode)
        for frac in (0.1, 0.35, 0.6, 0.85, 1.0):
            work = frac * minimizer.max_rate * deadline
            schedule = minimizer.solve(work, deadline)
            works.append(work)
            energies.append(minimizer.min_energy(work, deadline))
            slot_tables.append(np.array(
                [[-1 if s.config_index is None else s.config_index,
                  s.duration] for s in schedule]))
    slots = np.full((len(slot_tables), max(len(t) for t in slot_tables), 2),
                    np.nan)
    for i, table in enumerate(slot_tables):
        slots[i, :len(table)] = table
    np.savez_compressed(HERE / "hull_lp.npz",
                        rates=rates, powers=powers,
                        idle=np.float64(idle), hull_vertices=verts,
                        pareto_mask=mask, deadline=np.float64(deadline),
                        works=np.asarray(works),
                        energies=np.asarray(energies), slots=slots)


#: The run-loop fixture's applications, window and demand.
RUN_LOOP_APPS = ("kmeans", "swish", "x264")
RUN_LOOP_DEADLINE = 20.0
RUN_LOOP_UTILIZATION = 0.5
#: The cluster case: three tenants sharing the node under this cap.
RUN_LOOP_CLUSTER_CAP = 260.0
RUN_LOOP_CLUSTER_UTILIZATIONS = (0.3, 0.4, 0.3)
#: The checkpoint cases' quantum boundary, and the applications whose
#: adaptive runs carry detector progress (kmeans) and visited
#: configurations (x264) there.
RUN_LOOP_CHECKPOINT_AT = 7
RUN_LOOP_CHECKPOINT_APPS = ("kmeans", "x264")


class CaptureAt:
    """A checkpointer that keeps the payload of one quantum boundary,
    round-tripped through JSON like the on-disk format."""

    def __init__(self, at_quantum: int) -> None:
        self.at = at_quantum
        self.payload = None

    def maybe_save(self, quantum_index: int, payload_fn) -> bool:
        if quantum_index == self.at and self.payload is None:
            self.payload = json.loads(json.dumps(payload_fn()))
            return True
        return False


def run_loop_space() -> ConfigurationSpace:
    return ConfigurationSpace.cores_only()


def run_loop_dataset(space: ConfigurationSpace) -> OfflineDataset:
    """Noisy offline tables for the whole suite (the prior data)."""
    return OfflineDataset.collect(Machine(PAPER_TOPOLOGY, seed=99),
                                  paper_suite(), space, noisy=True)


def run_loop_controller(space: ConfigurationSpace, dataset: OfflineDataset,
                        app: str, seed: int) -> RuntimeController:
    """An ``offline``-estimating controller on a fresh seeded machine."""
    view = dataset.leave_one_out(app)
    return RuntimeController(
        machine=Machine(PAPER_TOPOLOGY, seed=seed), space=space,
        estimator=OfflineEstimator(), prior_rates=view.prior_rates,
        prior_powers=view.prior_powers, sampler=RandomSampler(seed=seed),
        sample_count=6)


def run_loop_work(space: ConfigurationSpace, app: str) -> float:
    machine = Machine(PAPER_TOPOLOGY)
    profile = get_benchmark(app)
    max_rate = max(machine.true_rate(profile, c) for c in space)
    return RUN_LOOP_UTILIZATION * max_rate * RUN_LOOP_DEADLINE


def _cluster_outcome(space: ConfigurationSpace, dataset: OfflineDataset,
                     policy: str) -> dict:
    names = RUN_LOOP_APPS
    share = space.topology.total_cores // len(names)
    node = PartitionedMachine(space, [(name, share) for name in names])
    for name in names:
        node.set_profile(name, get_benchmark(name))
    coordinator = ClusterCoordinator(space, cap_watts=RUN_LOOP_CLUSTER_CAP,
                                     policy=policy, seed=5)
    for name, utilization in zip(names, RUN_LOOP_CLUSTER_UTILIZATIONS):
        profile = get_benchmark(name)
        max_rate = max(node.view(name).true_rate(profile, c)
                       for c in node.space_for(name).space)
        view = dataset.leave_one_out(name)
        coordinator.admit(Tenant(
            name=name, workload=profile,
            work=utilization * max_rate * RUN_LOOP_DEADLINE,
            deadline=RUN_LOOP_DEADLINE, estimator="offline",
            prior_rates=view.prior_rates, prior_powers=view.prior_powers))
    report = coordinator.run()
    return {
        "node_energy": report.node_energy,
        "epoch_peak_watts": list(report.epoch_peak_watts),
        "epochs": report.epochs,
        "reallocations": report.reallocations,
        "tenants": {name: {"work_done": tenant.work_done,
                           "energy": tenant.energy,
                           "met_deadline": tenant.met_deadline,
                           "reestimations": tenant.reestimations,
                           "calibrations": tenant.calibrations,
                           "epochs": tenant.epochs}
                    for name, tenant in report.tenants.items()},
    }


def run_loops_outcome() -> dict:
    """Every runtime loop's outcome on the fixture's fixed inputs."""
    space = run_loop_space()
    paper_space = ConfigurationSpace.paper_space()
    dataset = run_loop_dataset(space)
    reports = {}
    for i, app in enumerate(RUN_LOOP_APPS):
        profile = get_benchmark(app)
        work = run_loop_work(space, app)
        seed = 100 + i
        for adapt in (False, True):
            controller = run_loop_controller(space, dataset, app, seed)
            estimate = controller.calibrate(profile)
            report = controller.run(profile, work, RUN_LOOP_DEADLINE,
                                    estimate, adapt=adapt)
            key = "controller_adapt" if adapt else "controller"
            reports[f"{key}/{app}"] = dataclasses.asdict(report)
        baselines = (
            ("race_to_idle", lambda m: RaceToIdleController(m, space).run(
                profile, work, RUN_LOOP_DEADLINE)),
            ("governor", lambda m: OndemandGovernor(m, space).run(
                profile, work, RUN_LOOP_DEADLINE)),
            ("hull", lambda m: HullRateController(m, space).run(
                profile, work, RUN_LOOP_DEADLINE, estimate)),
        )
        for name, run in baselines:
            report = run(Machine(PAPER_TOPOLOGY, seed=seed))
            reports[f"{name}/{app}"] = dataclasses.asdict(report)
        report = OndemandGovernor(
            Machine(PAPER_TOPOLOGY, seed=seed), paper_space).run(
                profile, run_loop_work(paper_space, app), RUN_LOOP_DEADLINE)
        reports[f"governor_paper/{app}"] = dataclasses.asdict(report)

    checkpoints = {}
    for app in RUN_LOOP_CHECKPOINT_APPS:
        profile = get_benchmark(app)
        controller = run_loop_controller(space, dataset, app, seed=200)
        estimate = controller.calibrate(profile)
        capture = CaptureAt(RUN_LOOP_CHECKPOINT_AT)
        report = controller.run(profile, run_loop_work(space, app),
                                RUN_LOOP_DEADLINE, estimate, adapt=True,
                                checkpointer=capture)
        checkpoints[app] = {"seed": 200, "payload": capture.payload,
                            "report": dataclasses.asdict(report)}
    return {
        "reports": reports,
        "cluster": {policy: _cluster_outcome(space, dataset, policy)
                    for policy in ("joint", "static", "race")},
        "checkpoints": checkpoints,
    }


def generate_run_loops() -> None:
    with open(HERE / "run_loops.json", "w") as handle:
        # ``default`` turns numpy scalars (a report's flag can be a
        # numpy bool) into their plain Python values.
        json.dump(run_loops_outcome(), handle, indent=1, sort_keys=True,
                  default=lambda value: value.item())
        handle.write("\n")


def main(names=None) -> None:
    wanted = set(names) if names else None
    unknown = ((wanted or set()) - set(EM_CASES)
               - {"leo_estimate", "hull_lp", "run_loops"})
    if unknown:
        raise SystemExit(f"unknown fixtures: {sorted(unknown)}")
    generate_em(wanted)
    if wanted is None or "leo_estimate" in wanted:
        generate_leo()
    if wanted is None or "hull_lp" in wanted:
        generate_hull_lp()
    if wanted is None or "run_loops" in wanted:
        generate_run_loops()
    print(f"fixtures written to {HERE}")


if __name__ == "__main__":
    main(sys.argv[1:])
