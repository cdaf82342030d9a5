"""Co-scheduling experiment: coordinated vs static caps vs race-to-idle.

Three applications share one node under a global power cap.  The
coordinated policy (``"joint"``) divides the cap across the tenants'
learned tradeoff curves; the baselines split it evenly — either running
each tenant's LEO controller inside its static share (``"static"``,
the per-app-static-cap baseline) or racing to idle within it
(``"race"``).  The sweep crosses a grid of caps with the three
policies and reports, per run, total node energy, completed work,
deadline misses, and the conservative per-epoch peak (which the tests
assert never exceeds the cap).

The story mirrors the paper's single-app energy results (Section 6.4)
at node scale: with a loose cap every policy meets its deadlines and
the joint allocator wins on energy outright (it can grant a tenant the
efficient configurations an equal split prices out); as the cap
tightens, the equal split pinches the heavy tenant into missing its
deadline while the joint allocator re-balances and still meets all
three.

Each ``(cap, policy)`` cell seeds its coordinator from the cell payload
alone, so a cell's result does not depend on the rest of the grid.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster import POLICIES, ClusterCoordinator, Tenant
from repro.cluster.partition import PartitionedMachine
from repro.experiments import harness
from repro.experiments.harness import ExperimentContext
from repro.runtime.sampling import cell_seed

#: Default co-resident benchmarks: one heavy scaler, one throughput
#: monster, one intermediate — heterogeneous enough that an equal split
#: is the wrong answer.
DEFAULT_BENCHMARKS = ("fluidanimate", "kmeans", "blackscholes")

#: Demanded utilization of each tenant's partition capacity.
DEFAULT_UTILIZATIONS = (0.75, 0.25, 0.35)

#: Power caps (W) swept by default: loose, pinching, tight.
DEFAULT_CAPS = (260.0, 245.0, 230.0)

DEFAULT_DEADLINE = 40.0


@dataclasses.dataclass
class ClusterRun:
    """Outcome of one ``(cap, policy)`` cell.

    Attributes:
        cap_watts: The global power cap in force.
        policy: Allocation policy (``"joint"``/``"static"``/``"race"``).
        total_energy: Node energy over the run (J), calibration included.
        work_done: Heartbeats completed across all tenants.
        work_target: Heartbeats demanded across all tenants.
        max_peak_watts: Highest per-epoch conservative node peak.
        cap_respected: Whether every execution epoch stayed under cap.
        reallocations: Allocator invocations over the run.
        missed: Names of tenants that missed their deadline.
        tenant_energy: Per-tenant energy shares (J).
    """

    cap_watts: float
    policy: str
    total_energy: float
    work_done: float
    work_target: float
    max_peak_watts: float
    cap_respected: bool
    reallocations: int
    missed: List[str]
    tenant_energy: Dict[str, float]

    @property
    def energy_per_work(self) -> float:
        """Joules per completed heartbeat — the cross-policy score.

        Missing a deadline forfeits credit for the skipped work, same
        as the Figure 11 normalization.
        """
        return self.total_energy / max(self.work_done, 1e-9)


def tenant_workloads(ctx: ExperimentContext,
                     benchmarks: Sequence[str],
                     utilizations: Sequence[float],
                     deadline: float) -> List[Tuple[str, float]]:
    """Size each tenant's work demand from its partition's capacity.

    Mirrors the paper's utilization protocol (Section 6.4) at partition
    scale: tenant *i* demands ``u_i`` of the maximum work achievable in
    its equal-split partition within the deadline, on the *true*
    contention-derated curves.  Returns ``(name, work)`` pairs.
    """
    if len(benchmarks) != len(utilizations):
        raise ValueError(
            f"{len(benchmarks)} benchmarks but {len(utilizations)} "
            f"utilizations")
    topology = ctx.space.topology
    share, spare = divmod(topology.total_cores, len(benchmarks))
    requests = []
    for i, name in enumerate(benchmarks):
        cores = share + (1 if i < spare else 0)
        requests.append((name, cores, topology.threads_per_core * cores))
    node = PartitionedMachine(ctx.space, requests, seed=ctx.seed)
    for name in benchmarks:
        node.set_profile(name, ctx.profile(name))
    workloads = []
    for name, utilization in zip(benchmarks, utilizations):
        view = node.view(name)
        tspace = node.space_for(name)
        profile = ctx.profile(name)
        max_rate = max(view.true_rate(profile, config)
                       for config in tspace.space)
        workloads.append((name, utilization * max_rate * deadline))
    return workloads


def _cluster_cell(shared, cell) -> ClusterRun:
    """One ``(cap, policy)`` run, seeded entirely by the cell payload."""
    ctx, workloads, deadline = shared
    cap, policy = cell
    coordinator = ClusterCoordinator(
        ctx.space, cap_watts=cap, policy=policy,
        seed=cell_seed(ctx.seed, "cluster", cap, policy))
    for name, work in workloads:
        view = ctx.dataset.leave_one_out(name)
        coordinator.admit(Tenant(
            name=name, workload=ctx.profile(name), work=work,
            deadline=deadline,
            prior_rates=view.prior_rates, prior_powers=view.prior_powers))
    report = coordinator.run()
    tenants = report.tenants
    return ClusterRun(
        cap_watts=float(cap), policy=policy,
        total_energy=report.node_energy,
        work_done=sum(t.work_done for t in tenants.values()),
        work_target=sum(t.work_target for t in tenants.values()),
        max_peak_watts=(max(report.epoch_peak_watts)
                        if report.epoch_peak_watts else 0.0),
        cap_respected=report.cap_respected,
        reallocations=report.reallocations,
        missed=[name for name, t in tenants.items() if not t.met_deadline],
        tenant_energy={name: t.energy for name, t in tenants.items()})


def cluster_energy_experiment(ctx: Optional[ExperimentContext] = None,
                              benchmarks: Sequence[str] = DEFAULT_BENCHMARKS,
                              utilizations: Sequence[float]
                              = DEFAULT_UTILIZATIONS,
                              caps: Sequence[float] = DEFAULT_CAPS,
                              deadline: float = DEFAULT_DEADLINE,
                              policies: Sequence[str] = POLICIES
                              ) -> List[ClusterRun]:
    """Run the cap × policy sweep; one :class:`ClusterRun` per cell."""
    if ctx is None:
        ctx = harness.default_context(space_kind="cores")
    workloads = tenant_workloads(ctx, benchmarks, utilizations, deadline)
    cells = [(float(cap), policy) for cap in caps for policy in policies]
    shared = (ctx, workloads, deadline)
    with harness.experiment_span("cluster", cells=len(cells)):
        return [_cluster_cell(shared, cell) for cell in cells]


def summarize_runs(runs: Sequence[ClusterRun]) -> List[List[object]]:
    """Table rows for :func:`repro.experiments.harness.format_table`."""
    return [[run.cap_watts, run.policy, run.total_energy,
             1000.0 * run.energy_per_work, run.max_peak_watts,
             run.cap_respected, ",".join(run.missed) or "-"]
            for run in runs]
