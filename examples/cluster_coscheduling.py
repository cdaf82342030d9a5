#!/usr/bin/env python3
"""Co-scheduling three applications on one node under a power cap.

One node, three tenants — a heavy scaler (fluidanimate), a throughput
monster (kmeans), and an intermediate (blackscholes) — each with its
own deadline, sharing a global power cap.  The cluster coordinator
partitions the cores, calibrates a LEO model per tenant, and divides
the cap across the learned tradeoff curves; the baseline splits the
cap evenly and lets each tenant fend for itself inside its share.

At a loose cap both policies meet every deadline and the joint
allocator wins on energy (it can grant a tenant the efficient
configurations an equal split prices out); at a tight cap the equal
split pinches the heavy tenant into missing its deadline while the
joint allocator re-balances and still meets all three.

Run:  python examples/cluster_coscheduling.py
"""

from repro.cluster import ClusterCoordinator, Tenant
from repro.experiments.cluster_energy import tenant_workloads
from repro.experiments.harness import default_context, format_table
from repro.runtime.sampling import cell_seed

BENCHMARKS = ("fluidanimate", "kmeans", "blackscholes")
UTILIZATIONS = (0.75, 0.25, 0.35)
DEADLINE = 40.0
CAPS = (260.0, 230.0)


def run_policy(ctx, workloads, cap, policy):
    coordinator = ClusterCoordinator(
        ctx.space, cap_watts=cap, policy=policy,
        seed=cell_seed(ctx.seed, "cluster", cap, policy))
    for name, work in workloads:
        view = ctx.dataset.leave_one_out(name)
        coordinator.admit(Tenant(
            name=name, workload=ctx.profile(name), work=work,
            deadline=DEADLINE,
            prior_rates=view.prior_rates, prior_powers=view.prior_powers))
    return coordinator.run()


def main() -> None:
    ctx = default_context(space_kind="cores")
    workloads = tenant_workloads(ctx, BENCHMARKS, UTILIZATIONS, DEADLINE)
    print("Tenant demands over a shared node "
          f"({ctx.space.topology.total_cores} cores, {DEADLINE:.0f}s "
          "deadline):")
    for name, work in workloads:
        print(f"  {name:<14} {work:12,.0f} heartbeats")

    rows = []
    for cap in CAPS:
        for policy in ("joint", "static"):
            report = run_policy(ctx, workloads, cap, policy)
            missed = [name for name, t in report.tenants.items()
                      if not t.met_deadline]
            rows.append([cap, policy, report.node_energy,
                         max(report.epoch_peak_watts),
                         "yes" if report.cap_respected else "NO",
                         ",".join(missed) or "-"])

    print()
    print(format_table(
        ["cap (W)", "policy", "energy (J)", "peak (W)", "cap ok",
         "missed deadlines"],
        rows, title="Coordinated vs equal-split power capping"))
    print("\nLoose cap: both policies feasible, joint spends less energy.")
    print("Tight cap: the equal split starves the heavy tenant; the joint")
    print("allocator re-balances the cap and still meets every deadline.")


if __name__ == "__main__":
    main()
