"""Hetero-aware energy minimization vs. a homogeneous-ignorant baseline.

The headline heterogeneous experiment: the 25-workload suite runs on a
big.LITTLE-style node with an offload device
(:data:`~repro.platform.hetero.BIG_LITTLE`), with prior applications
observed on the paper's *homogeneous* Xeon platform.  Two estimate→
Pareto→LP pipelines compete at a fixed deadline and utilization:

* ``"hetero"`` — sees the full heterogeneous configuration space
  (per-cluster core counts, per-cluster DVFS, offload) and uses the
  cross-platform :class:`~repro.core.transfer.TransferPrior`: Xeon
  curves aligned onto the hetero space, shrunk by platform similarity,
  with per-platform covariance blocks feeding
  :class:`~repro.estimators.transfer.TransferAwareLEO`.
* ``"homogeneous"`` — the ignorant baseline: treats the node as a small
  homogeneous machine (big cluster only, no LITTLE cores, no offload)
  and pools the Xeon priors naively.

Both modes estimate from the same number of noisy samples, solve the
same Eq. 1 LP for the same work target (sized inside the shared big-only
subspace so both can meet it), and are priced on the *true* hetero
curves.  The headline figure is per-benchmark energy savings of the
hetero-aware pipeline; since the baseline's subspace is a strict subset
of the hetero space, the savings are structural, not a tuning artifact.

A second, cluster-layer sweep (:func:`hetero_cap_allocation`) partitions
the node per cluster and lets :class:`~repro.cluster.PowerCapAllocator`
water-fill a global cap across tenants whose Pareto frontiers come from
*different* core types — the heterogeneous-node co-scheduling story.

Each ``(benchmark, mode)`` cell seeds its machine and sample draw from
the cell payload alone, so a cell's result does not depend on the rest
of the sweep.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.allocator import (
    PowerCapAllocator,
    StaticAllocator,
    TenantDemand,
)
from repro.cluster.partition import partition_space
from repro.core.transfer import TransferPrior, map_indices
from repro.errors import InfeasibleConstraintError
from repro.estimators import (
    EstimationProblem,
    LEOEstimator,
    TransferAwareLEO,
    normalize_problem,
)
from repro.experiments import harness
from repro.experiments.harness import random_indices
from repro.optimize import EnergyMinimizer
from repro.platform.config_space import ConfigurationSpace
from repro.platform.hetero import (
    BIG_LITTLE,
    HeteroMachine,
    HeteroTopology,
    cluster_indices,
    hetero_space,
)
from repro.platform.topology import PAPER_TOPOLOGY
from repro.runtime.sampling import cell_seed
from repro.workloads.suite import paper_suite
from repro.workloads.traces import OfflineDataset

MODES = ("hetero", "homogeneous")

DEFAULT_DEADLINE = 30.0
DEFAULT_UTILIZATION = 0.7
#: Calibration budget per cell.  48 fully observes the baseline's
#: big-only subspace (40 configurations) — the homogeneous pipeline is
#: effectively an oracle for its own space, so any hetero win is
#: structural, not a sampling artifact.
DEFAULT_SAMPLES = 48
DEFAULT_PSI_BLEND = 0.35

#: Ladder decimation of the default experiment space: five of the big
#: cluster's eight speed settings, three of the LITTLE's four.  Keeps
#: the estimate path tractable while the space stays past the paper's
#: 1024 (the undecimated ``hetero_space(BIG_LITTLE)`` has 2240).
DEFAULT_SPEED_INDICES = ((0, 2, 4, 6, 7), (0, 2, 3))


@dataclasses.dataclass
class HeteroRun:
    """Outcome of one ``(benchmark, mode)`` cell.

    Attributes:
        benchmark: Workload name.
        mode: ``"hetero"`` or ``"homogeneous"``.
        energy: True energy (J) of the estimated-optimal schedule over
            the deadline window, idle time included.
        work_target: Heartbeats demanded.
        work_done: Heartbeats the schedule truly completes.
        met_deadline: Whether the schedule covers the work target.
        space_size: Configurations visible to this mode's estimator.
    """

    benchmark: str
    mode: str
    energy: float
    work_target: float
    work_done: float
    met_deadline: bool
    space_size: int

    @property
    def work_fraction(self) -> float:
        """Completed fraction of the demand, capped at 1 (no credit
        for overshoot) — the Figure 11 charging convention."""
        return min(max(self.work_done / self.work_target, 1e-6), 1.0)

    @property
    def effective_energy(self) -> float:
        """Energy charged per unit of completed work: ``E / fraction``.

        Matches :mod:`repro.experiments.energy` — an approach that
        misses its demand is charged as if it had to make the work up.
        """
        return self.energy / self.work_fraction


@dataclasses.dataclass
class HeteroSetup:
    """Cell-independent precomputation shared by every cell.

    Carries the *paper platform's* offline dataset — the source of the
    transfer priors — alongside the hetero spaces and per-benchmark
    work targets."""

    topology: HeteroTopology
    space: ConfigurationSpace
    big_space: ConfigurationSpace
    paper_space: ConfigurationSpace
    dataset: OfflineDataset
    work_targets: Dict[str, float]
    deadline: float
    samples: int
    psi_blend: float
    seed: int


def build_setup(topology: HeteroTopology = BIG_LITTLE,
                speed_indices: Optional[Sequence[Optional[Sequence[int]]]]
                = DEFAULT_SPEED_INDICES,
                deadline: float = DEFAULT_DEADLINE,
                utilization: float = DEFAULT_UTILIZATION,
                samples: int = DEFAULT_SAMPLES,
                psi_blend: float = DEFAULT_PSI_BLEND,
                seed: int = 0,
                benchmarks: Optional[Sequence[str]] = None) -> HeteroSetup:
    """Precompute the spaces and per-benchmark work targets.

    Work is sized inside the big-only subspace — achievable by both
    modes — as ``utilization * true_max_rate * deadline``, mirroring
    the paper's utilization protocol (Section 6.4).
    """
    space = hetero_space(topology, speed_indices)
    primary = topology.clusters[0].name
    big_space = space.subspace(cluster_indices(space, topology, primary))
    ctx = harness.default_context(space_kind="paper", seed=seed)
    machine = HeteroMachine(topology, seed=seed)
    suite = {p.name: p for p in paper_suite()}
    names = list(benchmarks) if benchmarks is not None else list(suite)
    targets: Dict[str, float] = {}
    for name in names:
        profile = suite[name]
        max_rate = max(machine.true_rate(profile, config)
                       for config in big_space)
        targets[name] = utilization * max_rate * deadline
    return HeteroSetup(topology=topology, space=space, big_space=big_space,
                       paper_space=ctx.space, dataset=ctx.dataset,
                       work_targets=targets, deadline=deadline,
                       samples=samples, psi_blend=psi_blend, seed=seed)


def _estimate_curve(space: ConfigurationSpace, prior: np.ndarray,
                    indices: np.ndarray, observed: np.ndarray,
                    estimator) -> np.ndarray:
    """One absolute curve through the normalize → estimate path."""
    problem = EstimationProblem(
        features=space.feature_matrix(), prior=prior,
        observed_indices=indices, observed_values=observed)
    normalized, scale = normalize_problem(problem)
    curve = estimator.estimate(normalized) * scale
    floor = 1e-3 * float(np.min(observed))
    return np.maximum(curve, max(floor, 1e-12))


def _hetero_cell(shared: HeteroSetup, cell: Tuple[str, str]) -> HeteroRun:
    """One ``(benchmark, mode)`` run, seeded entirely by the cell
    payload."""
    setup = shared
    benchmark, mode = cell
    profile = {p.name: p for p in paper_suite()}[benchmark]
    view = setup.dataset.leave_one_out(benchmark)
    paper_space = setup.paper_space

    mode_space = setup.space if mode == "hetero" else setup.big_space
    if mode == "hetero":
        transfer = TransferPrior()
        transfer.add_platform(PAPER_TOPOLOGY, paper_space,
                              view.prior_rates, view.prior_powers,
                              names=view.prior_names)
        transferred = transfer.build(setup.topology, mode_space)
        prior_rates, prior_powers = transferred.rates, transferred.powers
        def make_estimator():
            return TransferAwareLEO(blocks=transferred.blocks,
                                    psi_blend=setup.psi_blend)
    else:
        # Homogeneous-ignorant: pool the foreign curves as if native.
        idx = map_indices(paper_space, mode_space)
        prior_rates = view.prior_rates[:, idx]
        prior_powers = view.prior_powers[:, idx]
        def make_estimator():
            return LEOEstimator()

    machine = HeteroMachine(
        setup.topology,
        seed=cell_seed(setup.seed, "hetero-machine", benchmark, mode))
    machine.load(profile)
    indices = random_indices(
        len(mode_space), min(setup.samples, len(mode_space)),
        cell_seed(setup.seed, "hetero-samples", benchmark, mode))
    rate_obs = np.empty(indices.size)
    power_obs = np.empty(indices.size)
    for j, i in enumerate(indices):
        machine.apply(mode_space[int(i)])
        m = machine.run_for(1.0)
        rate_obs[j], power_obs[j] = m.rate, m.system_power

    idle = machine.idle_power()
    work = setup.work_targets[benchmark]

    def fit_and_solve():
        est_rates = _estimate_curve(mode_space, prior_rates, indices,
                                    rate_obs, make_estimator())
        est_powers = _estimate_curve(mode_space, prior_powers, indices,
                                     power_obs, make_estimator())
        minimizer = EnergyMinimizer(est_rates, est_powers, idle)
        try:
            return minimizer.solve(work, setup.deadline)
        except InfeasibleConstraintError as err:
            # The estimate undersells the platform: run flat out at
            # the estimated max rate and accept the shortfall.
            return minimizer.solve(err.max_rate * setup.deadline
                                   * (1.0 - 1e-12), setup.deadline)

    # Calibrate, solve, then refine: measure the configurations the
    # plan actually uses (an online controller's first control epochs)
    # and re-fit, until the committed plan runs only on validated
    # configurations.  Each round measures at least one new
    # configuration, so this terminates; the cap is a safety net.
    schedule = fit_and_solve()
    for _ in range(12):
        chosen = [s.config_index for s in schedule
                  if s.config_index is not None]
        fresh = [i for i in chosen
                 if i not in set(int(k) for k in indices)]
        if not fresh:
            break
        extra_r = np.empty(len(fresh))
        extra_p = np.empty(len(fresh))
        for j, i in enumerate(fresh):
            machine.apply(mode_space[int(i)])
            m = machine.run_for(1.0)
            extra_r[j], extra_p[j] = m.rate, m.system_power
        indices = np.concatenate([indices, np.asarray(fresh, dtype=int)])
        rate_obs = np.concatenate([rate_obs, extra_r])
        power_obs = np.concatenate([power_obs, extra_p])
        schedule = fit_and_solve()

    # Price the schedule on the true hetero curves.
    true_rates, true_powers = machine.sweep(profile, mode_space,
                                            noisy=False)
    energy = 0.0
    done = 0.0
    busy = 0.0
    for slot in schedule:
        if slot.config_index is None or slot.duration <= 0:
            continue
        energy += true_powers[slot.config_index] * slot.duration
        done += true_rates[slot.config_index] * slot.duration
        busy += slot.duration
    energy += idle * max(setup.deadline - busy, 0.0)

    return HeteroRun(
        benchmark=benchmark, mode=mode, energy=float(energy),
        work_target=float(work), work_done=float(done),
        met_deadline=bool(done >= work * (1.0 - 1e-6)),
        space_size=len(mode_space))


def hetero_energy_experiment(benchmarks: Optional[Sequence[str]] = None,
                             topology: HeteroTopology = BIG_LITTLE,
                             deadline: float = DEFAULT_DEADLINE,
                             utilization: float = DEFAULT_UTILIZATION,
                             samples: int = DEFAULT_SAMPLES,
                             psi_blend: float = DEFAULT_PSI_BLEND,
                             seed: int = 0,
                             setup: Optional[HeteroSetup] = None
                             ) -> List[HeteroRun]:
    """Run the benchmark × mode sweep; one :class:`HeteroRun` per cell."""
    if setup is None:
        setup = build_setup(topology=topology, deadline=deadline,
                            utilization=utilization, samples=samples,
                            psi_blend=psi_blend, seed=seed,
                            benchmarks=benchmarks)
    names = (list(benchmarks) if benchmarks is not None
             else list(setup.work_targets))
    cells = [(name, mode) for name in names for mode in MODES]
    with harness.experiment_span("hetero", cells=len(cells)):
        return [_hetero_cell(setup, cell) for cell in cells]


def savings_summary(runs: Sequence[HeteroRun]) -> Dict[str, float]:
    """Per-benchmark energy savings of hetero over the baseline.

    ``savings = 1 - E_hetero / E_homogeneous`` on *effective* energy
    (charged per unit of completed work); positive means the
    hetero-aware pipeline spent less energy for the same work demand.
    """
    by_benchmark: Dict[str, Dict[str, HeteroRun]] = {}
    for run in runs:
        by_benchmark.setdefault(run.benchmark, {})[run.mode] = run
    savings = {}
    for name, pair in sorted(by_benchmark.items()):
        if set(pair) != set(MODES):
            continue
        savings[name] = 1.0 - (pair["hetero"].effective_energy
                               / pair["homogeneous"].effective_energy)
    return savings


def summarize_runs(runs: Sequence[HeteroRun]) -> List[List[object]]:
    """Table rows for :func:`repro.experiments.harness.format_table`."""
    by_benchmark: Dict[str, Dict[str, HeteroRun]] = {}
    for run in runs:
        by_benchmark.setdefault(run.benchmark, {})[run.mode] = run
    savings = savings_summary(runs)
    rows = []
    for name, pair in sorted(by_benchmark.items()):
        het = pair.get("hetero")
        hom = pair.get("homogeneous")
        rows.append([
            name,
            het.effective_energy if het else float("nan"),
            hom.effective_energy if hom else float("nan"),
            100.0 * savings.get(name, float("nan")),
            "yes" if het and het.met_deadline else "no",
            "yes" if hom and hom.met_deadline else "no",
        ])
    return rows


# ----------------------------------------------------------------------
# Cluster layer: water-filling across per-cluster tenants
# ----------------------------------------------------------------------
@dataclasses.dataclass
class CapAllocationRun:
    """Joint vs static allocation across per-cluster tenants at one cap."""

    cap_watts: float
    joint_watts: float
    static_watts: float
    joint_feasible: int
    static_feasible: int
    joint_mode: str
    budgets: Dict[str, float]


def hetero_cap_allocation(topology: HeteroTopology = BIG_LITTLE,
                          caps: Sequence[float] = (170.0, 150.0, 130.0),
                          deadline: float = DEFAULT_DEADLINE,
                          utilization: float = 0.6,
                          seed: int = 0) -> List[CapAllocationRun]:
    """Water-fill a global cap across one tenant per core cluster.

    Each cluster becomes one tenant whose tradeoff curve comes from the
    configurations active *only* on that cluster — Pareto frontiers
    with genuinely different shapes (big: fast and power-hungry;
    LITTLE: slow and frugal).  The joint allocator should meet the same
    demands at no more estimated power than the equal split, and keep
    more tenants feasible at tight caps.
    """
    space = hetero_space(topology, DEFAULT_SPEED_INDICES)
    machine = HeteroMachine(topology, seed=seed)
    suite = paper_suite()
    partitions = topology.split_by_cluster()
    # Tenant wall powers follow the partition convention (see
    # cluster/partition.py): node-wide floor and idle draws are charged
    # at 1/num_partitions each, so the tenants' powers sum to the node.
    floor = machine.power_model.constants.system_floor
    share = 1.0 / len(partitions)
    demands = []
    for i, partition in enumerate(partitions):
        indices = cluster_indices(space, topology, partition.name)
        tspace = partition_space(space, partition, indices=indices)
        profile = suite[i % len(suite)]
        rates = np.array([machine.true_rate(profile, c)
                          for c in tspace.space])
        powers = np.array([machine.true_power(profile, c)
                           for c in tspace.space])
        powers = powers - (1.0 - share) * floor
        demands.append(TenantDemand(
            name=partition.name, rates=rates, powers=powers,
            idle_power=share * machine.idle_power(),
            required_rate=utilization * float(rates.max())))
    runs = []
    for cap in caps:
        joint = PowerCapAllocator(cap).allocate(demands)
        static = StaticAllocator(cap).allocate(demands)
        runs.append(CapAllocationRun(
            cap_watts=float(cap),
            joint_watts=joint.estimated_watts,
            static_watts=static.estimated_watts,
            joint_feasible=sum(t.feasible for t in joint.tenants),
            static_feasible=sum(t.feasible for t in static.tenants),
            joint_mode=joint.mode,
            budgets={t.name: t.budget_watts for t in joint.tenants}))
    return runs
