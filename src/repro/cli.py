"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``list-benchmarks`` — the 25-benchmark suite with suite membership.
* ``show-benchmark NAME`` — one profile's behavioural parameters.
* ``estimate`` — sample a benchmark and print each approach's accuracy.
* ``optimize`` — run a benchmark at a utilization demand and report
  energy against race-to-idle and the true optimum.
* ``reproduce`` — regenerate a paper figure/table and print its rows
  (``fig1 fig5 fig6 fig11 fig12 table1``).
* ``cluster`` — co-schedule several benchmarks on one node under a
  global power cap and compare the joint allocator against the
  per-app-static-cap and race-to-idle baselines (docs/CLUSTER.md).
* ``hetero`` — run the suite on an asymmetric big.LITTLE node with an
  offload device and compare the hetero-aware pipeline (transfer
  priors, full per-cluster space) against a homogeneous-ignorant
  baseline; ``--allocation`` water-fills a power cap across
  per-cluster tenants instead (docs/PLATFORMS.md).
* ``serve`` — run the multi-tenant estimation service (see
  docs/SERVICE.md); prints ``SERVING <address>`` once listening.
* ``request`` — send one operation to a running service and print the
  response as one line of JSON.
* ``shard`` — spin up an N-shard fleet (docs/SHARDING.md), route demo
  requests by tenant key, and dump per-shard routing and metrics as
  JSON.
* ``obs summarize PATH [PATH ...]`` — render one or more JSONL trace
  shards (written with ``--trace`` or by a server) as one
  merged span tree with per-name aggregates; warns about orphans.
* ``obs critical-path PATH [PATH ...]`` — the heaviest root-to-leaf
  chain through the merged trace.
* ``obs slo PATH [PATH ...]`` — evaluate the default SLOs over one or
  more metrics JSON files (written with ``--metrics``).

Every command accepts ``--seed`` for reproducibility and ``--space``
(``paper`` = 1024 configurations, ``cores`` = the Section 2 32-config
space).  ``estimate``, ``optimize``, ``reproduce``, ``cluster``,
``chaos`` and ``serve`` also accept ``--trace PATH`` (record spans to
a JSONL file), ``--metrics PATH`` (write the metrics snapshot as JSON)
and ``--slo PATH`` (write the SLO report as JSON).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

import numpy as np

from repro.core.accuracy import accuracy
from repro.experiments import harness
from repro.experiments.harness import default_context, format_table
from repro.obs import Observability, read_trace, use, write_trace
from repro.optimize.lp import EnergyMinimizer
from repro.workloads.suite import SUITE_MEMBERSHIP, get_benchmark, paper_suite


def _add_obs_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trace", metavar="PATH", default=None,
                        help="record spans to a JSONL trace file")
    parser.add_argument("--metrics", metavar="PATH", default=None,
                        help="write the metrics snapshot as JSON")
    parser.add_argument("--slo", metavar="PATH", default=None,
                        help="write the SLO report as JSON")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="LEO (ASPLOS 2015) reproduction command line",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-benchmarks",
                   help="list the 25-benchmark suite")

    show = sub.add_parser("show-benchmark",
                          help="show one benchmark's profile")
    show.add_argument("name")

    estimate = sub.add_parser(
        "estimate", help="estimate a benchmark's tradeoff curves")
    estimate.add_argument("--benchmark", default="kmeans")
    estimate.add_argument("--samples", type=int, default=20)
    estimate.add_argument("--space", choices=("paper", "cores"),
                          default="paper")
    estimate.add_argument("--seed", type=int, default=0)
    _add_obs_arguments(estimate)

    optimize = sub.add_parser(
        "optimize", help="minimize energy for a utilization demand")
    optimize.add_argument("--benchmark", default="kmeans")
    optimize.add_argument("--utilization", type=float, default=0.5)
    optimize.add_argument("--deadline", type=float, default=100.0)
    optimize.add_argument("--estimator", default="leo")
    optimize.add_argument("--samples", type=int, default=20)
    optimize.add_argument("--space", choices=("paper", "cores"),
                          default="paper")
    optimize.add_argument("--seed", type=int, default=0)
    _add_obs_arguments(optimize)

    reproduce = sub.add_parser(
        "reproduce", help="regenerate a paper figure or table")
    reproduce.add_argument("target",
                           choices=("fig1", "fig5", "fig6", "fig11",
                                    "fig12", "table1"))
    reproduce.add_argument("--seed", type=int, default=0)
    _add_obs_arguments(reproduce)

    cluster = sub.add_parser(
        "cluster",
        help="co-schedule benchmarks under a power cap (docs/CLUSTER.md)")
    cluster.add_argument(
        "--benchmarks", default=None, metavar="A,B,C",
        help="comma-separated co-resident benchmarks "
             "(default: fluidanimate,kmeans,blackscholes)")
    cluster.add_argument(
        "--utilizations", default=None, metavar="U1,U2,U3",
        help="per-tenant demanded fraction of partition capacity "
             "(default: 0.9,0.25,0.35)")
    cluster.add_argument(
        "--caps", default=None, metavar="W1,W2",
        help="comma-separated power caps in watts "
             "(default: 260,240,225)")
    cluster.add_argument("--deadline", type=float, default=40.0,
                         help="shared tenant deadline in seconds")
    cluster.add_argument("--space", choices=("paper", "cores"),
                         default="cores")
    cluster.add_argument("--seed", type=int, default=0)
    _add_obs_arguments(cluster)

    hetero = sub.add_parser(
        "hetero",
        help="hetero-aware vs homogeneous-ignorant energy on an "
             "asymmetric node (docs/PLATFORMS.md)")
    hetero.add_argument(
        "--benchmarks", default=None, metavar="A,B,C",
        help="comma-separated benchmarks (default: the full suite)")
    hetero.add_argument("--deadline", type=float, default=None,
                        help="deadline window in seconds (default: 30)")
    hetero.add_argument("--utilization", type=float, default=None,
                        help="demanded fraction of the baseline "
                             "subspace's capacity (default: 0.7)")
    hetero.add_argument("--samples", type=int, default=None,
                        help="calibration samples per cell (default: 48)")
    hetero.add_argument("--seed", type=int, default=0)
    hetero.add_argument(
        "--allocation", action="store_true",
        help="water-fill a power cap across per-cluster tenants "
             "instead of the energy sweep")
    hetero.add_argument(
        "--caps", default=None, metavar="W1,W2",
        help="comma-separated caps for --allocation "
             "(default: 170,150,130)")
    _add_obs_arguments(hetero)

    chaos = sub.add_parser(
        "chaos",
        help="run a workload under a fault plan (docs/RESILIENCE.md)")
    chaos.add_argument("--benchmark", default="kmeans")
    chaos.add_argument(
        "--plan", default="default",
        help="shipped fault plan name (none, default, sensors, "
             "estimation, service, cluster, shard-loss)")
    chaos.add_argument("--windows", type=int, default=4,
                       help="back-to-back deadline windows per pass")
    chaos.add_argument("--utilization", type=float, default=0.5)
    chaos.add_argument("--deadline", type=float, default=25.0,
                       help="seconds per window")
    chaos.add_argument("--estimator", default="leo")
    chaos.add_argument("--space", choices=("paper", "cores"),
                       default="cores")
    chaos.add_argument("--seed", type=int, default=0)
    _add_obs_arguments(chaos)

    soak = sub.add_parser(
        "soak",
        help="long-horizon chaos soak on the virtual clock "
             "(docs/SOAK.md)")
    soak.add_argument(
        "--plan", default="default",
        help="soak profile (none, quiet, default, heavy)")
    soak.add_argument(
        "--horizon", default="2d", metavar="SPAN",
        help="simulated length: seconds, or days with a 'd' suffix "
             "(default 2d)")
    soak.add_argument("--tenants", type=int, default=16,
                      help="cluster tenants per burst")
    soak.add_argument("--seed", type=int, default=0)
    soak.add_argument("--cap", type=float, default=None, metavar="W",
                      help="node power cap for the cluster bursts")
    soak.add_argument(
        "--json", default=None, metavar="PATH",
        help="write the full soak report (with fingerprint) as JSON")
    soak.add_argument(
        "--slo", default=None, metavar="PATH",
        help="write the soak's SLO report as JSON")

    serve = sub.add_parser(
        "serve", help="run the estimation service (docs/SERVICE.md)")
    serve.add_argument(
        "--listen", default="127.0.0.1:0", metavar="ADDR",
        help="host:port (port 0 = ephemeral) or unix:/path/to.sock")
    serve.add_argument(
        "--registry", default=None, metavar="DIR",
        help="model-registry directory enabling warm starts; omit for a "
             "stateless server")
    serve.add_argument("--estimator", default="leo",
                       help="default estimator for requests that omit one")
    serve.add_argument("--max-pending", type=int, default=8, metavar="K",
                       help="admission bound: request K+1 is shed")
    serve.add_argument("--deadline", type=float, default=30.0, metavar="S",
                       help="default per-request deadline in seconds")
    serve.add_argument("--workers", type=int, default=None, metavar="N",
                       help="handler thread-pool width")
    _add_obs_arguments(serve)

    request = sub.add_parser(
        "request", help="send one operation to a running service")
    request.add_argument("address", metavar="ADDR",
                         help="host:port or unix:/path (from SERVING line)")
    request.add_argument("op", help="operation name, e.g. ping, "
                                    "estimate, calibrate-report")
    request.add_argument("--payload", default=None, metavar="JSON",
                         help="operation payload as a JSON object")
    request.add_argument("--deadline", type=float, default=None,
                         metavar="S", help="per-request deadline (seconds)")
    request.add_argument("--timeout", type=float, default=60.0,
                         metavar="S", help="socket timeout (seconds)")
    request.add_argument("--retries", type=int, default=2)
    request.add_argument("--retry-overloaded", action="store_true",
                         help="retry with backoff when the request is shed")

    shard = sub.add_parser(
        "shard",
        help="run an N-shard fleet demo and dump per-shard metrics "
             "(docs/SHARDING.md)")
    shard.add_argument("--shards", type=int, default=3, metavar="N",
                       help="broker count in the fleet")
    shard.add_argument("--replicas", type=int, default=1, metavar="R",
                       help="registry read replicas per shard")
    shard.add_argument("--tenants", type=int, default=8, metavar="T",
                       help="distinct tenant keys to route")
    shard.add_argument("--requests", type=int, default=4, metavar="K",
                       help="ping requests per tenant")
    shard.add_argument("--max-pending", type=int, default=32, metavar="K",
                       help="per-shard admission bound")
    shard.add_argument("--seed", type=int, default=0)

    obs = sub.add_parser(
        "obs", help="inspect recorded observability artifacts")
    obs.add_argument("action",
                     choices=("summarize", "critical-path", "slo"))
    obs.add_argument("path", nargs="+",
                     help="artifact files: JSONL trace shard(s) for "
                          "summarize/critical-path, metrics JSON "
                          "file(s) for slo")

    return parser


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------
def _cmd_list_benchmarks() -> int:
    rows = [[p.name, SUITE_MEMBERSHIP[p.name], p.base_rate,
             p.scaling_peak, p.memory_intensity, p.io_intensity]
            for p in paper_suite()]
    print(format_table(
        ["benchmark", "suite", "base hb/s", "scaling peak",
         "memory", "io"],
        rows, title="The 25-benchmark suite (Section 6.1)"))
    return 0


def _cmd_show_benchmark(name: str) -> int:
    try:
        profile = get_benchmark(name)
    except KeyError as exc:
        print(exc, file=sys.stderr)
        return 1
    for field in ("name", "base_rate", "serial_fraction", "scaling_peak",
                  "contention_slope", "memory_intensity", "io_intensity",
                  "ht_efficiency", "memory_parallelism", "activity_factor",
                  "noise"):
        print(f"{field:20s} {getattr(profile, field)}")
    return 0


def _cmd_estimate(args: argparse.Namespace) -> int:
    ctx = default_context(space_kind=args.space, seed=args.seed)
    if not 1 <= args.samples <= len(ctx.space):
        print(f"--samples must be in [1, {len(ctx.space)}]", file=sys.stderr)
        return 1
    try:
        view = ctx.dataset.leave_one_out(args.benchmark)
    except KeyError as exc:
        print(exc, file=sys.stderr)
        return 1
    truth = ctx.truth.leave_one_out(args.benchmark)
    indices = harness.random_indices(len(ctx.space), args.samples,
                                     args.seed)
    rate_obs, power_obs = harness.sample_target(
        ctx, ctx.profile(args.benchmark), indices, seed_offset=args.seed)

    rows = []
    for approach in harness.APPROACHES:
        estimate = harness.estimate_curves(ctx, view, indices, rate_obs,
                                           power_obs, approach)
        if not estimate.feasible:
            rows.append([approach, "infeasible", "infeasible", "-"])
            continue
        rows.append([
            approach,
            accuracy(estimate.rates, truth.true_rates),
            accuracy(estimate.powers, truth.true_powers),
            int(np.argmax(estimate.rates)),
        ])
    rows.append(["(truth)", 1.0, 1.0, int(np.argmax(truth.true_rates))])
    print(format_table(
        ["approach", "perf accuracy", "power accuracy", "peak config"],
        rows,
        title=(f"{args.benchmark} on the {args.space} space, "
               f"{args.samples} samples of {len(ctx.space)}")))
    return 0


def _cmd_optimize(args: argparse.Namespace) -> int:
    if not 0 < args.utilization <= 1:
        print("--utilization must be in (0, 1]", file=sys.stderr)
        return 1
    if not 0 < args.deadline < np.inf:
        print("--deadline must be positive and finite", file=sys.stderr)
        return 1
    from repro.estimators.registry import create_estimator
    from repro.runtime.controller import RuntimeController, TradeoffEstimate
    from repro.runtime.race_to_idle import RaceToIdleController
    from repro.runtime.sampling import RandomSampler

    ctx = default_context(space_kind=args.space, seed=args.seed)
    if not 1 <= args.samples <= len(ctx.space):
        print(f"--samples must be in [1, {len(ctx.space)}]", file=sys.stderr)
        return 1
    try:
        view = ctx.dataset.leave_one_out(args.benchmark)
        estimator = create_estimator(args.estimator)
    except KeyError as exc:
        print(exc, file=sys.stderr)
        return 1
    truth = ctx.truth.leave_one_out(args.benchmark)
    profile = ctx.profile(args.benchmark)
    machine = ctx.machine(seed_offset=args.seed + 1)

    indices = harness.random_indices(len(ctx.space), args.samples,
                                     args.seed)
    rate_obs, power_obs = harness.sample_target(ctx, profile, indices,
                                                seed_offset=args.seed)
    estimate = harness.estimate_curves(ctx, view, indices, rate_obs,
                                       power_obs, args.estimator)
    if not estimate.feasible:
        print(f"estimator {args.estimator!r} cannot fit "
              f"{args.samples} samples", file=sys.stderr)
        return 1

    controller = RuntimeController(
        machine=machine, space=ctx.space,
        estimator=estimator,
        prior_rates=view.prior_rates, prior_powers=view.prior_powers,
        sampler=RandomSampler(seed=args.seed))
    work = args.utilization * float(truth.true_rates.max()) * args.deadline
    report = controller.run(
        profile, work, args.deadline,
        TradeoffEstimate(rates=estimate.rates, powers=estimate.powers,
                         estimator_name=args.estimator))

    racer = RaceToIdleController(machine, ctx.space)
    race = racer.run(profile, work, args.deadline)
    optimal = EnergyMinimizer(truth.true_rates, truth.true_powers,
                              ctx.idle_power())
    optimal_energy = optimal.min_energy(work, args.deadline)

    rows = [
        [args.estimator, report.energy, report.energy / optimal_energy,
         report.met_target],
        ["race-to-idle", race.energy, race.energy / optimal_energy,
         race.met_target],
        ["optimal", optimal_energy, 1.0, True],
    ]
    print(format_table(
        ["approach", "energy (J)", "vs optimal", "demand met"],
        rows,
        title=(f"{args.benchmark} at {args.utilization:.0%} utilization, "
               f"{args.deadline:g}s deadline")))
    return 0


def _cmd_reproduce(args: argparse.Namespace) -> int:
    if args.target == "fig1":
        from repro.experiments.motivation import motivation_experiment
        ctx = default_context(space_kind="cores", seed=args.seed)
        result = motivation_experiment(ctx)
        rows = [[a, result.estimated_peak(a),
                 float(np.mean(result.energy[a])
                       / np.mean(result.energy["optimal"]))]
                for a in result.est_rates]
        print(format_table(
            ["approach", "estimated peak", "mean energy / optimal"], rows,
            title=f"Figure 1 (true peak = {result.true_peak()} cores)"))
        return 0
    if args.target in ("fig5", "fig6"):
        from repro.experiments.estimation import accuracy_experiment
        ctx = default_context(space_kind="paper", seed=args.seed)
        result = accuracy_experiment(ctx, trials=1)
        table = result.perf if args.target == "fig5" else result.power
        means = (result.mean_perf() if args.target == "fig5"
                 else result.mean_power())
        rows = [[name] + [table[name][a] for a in harness.APPROACHES]
                for name in sorted(table)]
        rows.append(["MEAN"] + [means[a] for a in harness.APPROACHES])
        label = "performance" if args.target == "fig5" else "power"
        print(format_table(["benchmark"] + list(harness.APPROACHES), rows,
                           title=f"Figure {args.target[-1]}: {label} "
                                 f"accuracy"))
        return 0
    if args.target == "fig11":
        from repro.experiments.energy import (energy_experiment,
                                              overall_normalized,
                                              summarize_normalized)
        ctx = default_context(space_kind="paper", seed=args.seed)
        curves = energy_experiment(ctx, num_utilizations=8)
        table = summarize_normalized(curves)
        overall = overall_normalized(curves)
        order = ("leo", "online", "offline", "race-to-idle")
        rows = [[name] + [scores[a] for a in order]
                for name, scores in sorted(table.items())]
        rows.append(["MEAN"] + [overall[a] for a in order])
        print(format_table(["benchmark"] + list(order), rows,
                           title="Figure 11: energy normalized to optimal"))
        return 0
    if args.target == "fig12":
        from repro.experiments.sensitivity import sensitivity_experiment
        ctx = default_context(space_kind="paper", seed=args.seed)
        result = sensitivity_experiment(
            ctx, sizes=(0, 5, 10, 15, 20, 30),
            benchmarks=ctx.benchmark_names[:8])
        rows = [[s, result.perf["leo"][i], result.perf["online"][i]]
                for i, s in enumerate(result.sizes)]
        print(format_table(["samples", "leo perf acc", "online perf acc"],
                           rows, title="Figure 12: sample-size sweep"))
        return 0
    # table1
    from repro.experiments.dynamic import dynamic_experiment, table1_rows
    ctx = default_context(space_kind="paper", seed=args.seed)
    result = dynamic_experiment(ctx)
    print(format_table(["Algorithm", "Phase#1", "Phase#2", "Overall"],
                       table1_rows(result),
                       title="Table 1: energy relative to optimal"))
    return 0


def _cmd_cluster(args: argparse.Namespace) -> int:
    from repro.experiments.cluster_energy import (
        DEFAULT_BENCHMARKS,
        DEFAULT_CAPS,
        DEFAULT_UTILIZATIONS,
        cluster_energy_experiment,
        summarize_runs,
    )

    def _split(raw: Optional[str], default, cast):
        if raw is None:
            return default
        return tuple(cast(part) for part in raw.split(",") if part)

    try:
        benchmarks = _split(args.benchmarks, DEFAULT_BENCHMARKS, str)
        utilizations = _split(args.utilizations, DEFAULT_UTILIZATIONS, float)
        caps = _split(args.caps, DEFAULT_CAPS, float)
        if len(benchmarks) != len(utilizations):
            raise ValueError(
                f"{len(benchmarks)} benchmarks need {len(benchmarks)} "
                f"utilizations, got {len(utilizations)}")
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 1
    ctx = default_context(space_kind=args.space, seed=args.seed)
    try:
        runs = cluster_energy_experiment(
            ctx, benchmarks=benchmarks, utilizations=utilizations,
            caps=caps, deadline=args.deadline)
    except (KeyError, ValueError) as exc:
        print(exc, file=sys.stderr)
        return 1
    print(format_table(
        ["cap (W)", "policy", "energy (J)", "mJ/heartbeat",
         "peak (W)", "cap ok", "missed deadlines"],
        summarize_runs(runs),
        title=(f"{', '.join(benchmarks)} co-scheduled for "
               f"{args.deadline:g}s")))
    return 0


def _cmd_hetero(args: argparse.Namespace) -> int:
    import repro.experiments.hetero_energy as hx

    if args.allocation:
        caps = (tuple(float(p) for p in args.caps.split(",") if p)
                if args.caps else (170.0, 150.0, 130.0))
        try:
            rows = [[r.cap_watts, r.joint_watts, r.joint_feasible,
                     r.joint_mode, r.static_watts, r.static_feasible]
                    for r in hx.hetero_cap_allocation(caps=caps,
                                                      seed=args.seed)]
        except ValueError as exc:
            print(exc, file=sys.stderr)
            return 1
        print(format_table(
            ["cap (W)", "joint (W)", "joint ok", "mode",
             "static (W)", "static ok"],
            rows, title="per-cluster tenants under a global cap"))
        return 0

    benchmarks = (tuple(p for p in args.benchmarks.split(",") if p)
                  if args.benchmarks else None)
    kwargs = {}
    if args.deadline is not None:
        kwargs["deadline"] = args.deadline
    if args.utilization is not None:
        kwargs["utilization"] = args.utilization
    if args.samples is not None:
        kwargs["samples"] = args.samples
    try:
        runs = hx.hetero_energy_experiment(
            benchmarks=benchmarks, seed=args.seed, **kwargs)
    except (KeyError, ValueError) as exc:
        print(exc, file=sys.stderr)
        return 1
    savings = hx.savings_summary(runs)
    print(format_table(
        ["benchmark", "hetero (J)", "homogeneous (J)", "savings (%)",
         "hetero met", "baseline met"],
        hx.summarize_runs(runs),
        title="energy per completed demand, hetero vs homogeneous"))
    if savings:
        mean = float(np.mean(list(savings.values())))
        print(f"mean savings: {100.0 * mean:.1f}%")
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    if not 0 < args.utilization <= 1:
        print("--utilization must be in (0, 1]", file=sys.stderr)
        return 1
    if not 0 < args.deadline < np.inf:
        print("--deadline must be positive and finite", file=sys.stderr)
        return 1
    if args.windows < 1:
        print("--windows must be >= 1", file=sys.stderr)
        return 1
    from repro.errors import FaultPlanError
    from repro.experiments.chaos import chaos_run

    ctx = default_context(space_kind=args.space, seed=args.seed)
    try:
        report = chaos_run(
            ctx, benchmark=args.benchmark, plan=args.plan, seed=args.seed,
            windows=args.windows, utilization=args.utilization,
            deadline=args.deadline, estimator=args.estimator)
    except (KeyError, FaultPlanError) as exc:
        print(exc, file=sys.stderr)
        return 1
    rows = [
        ["survived", report.survived if not report.error
         else f"{report.survived} ({report.error})"],
        ["windows completed", f"{report.windows_run}/{report.windows}"],
        ["energy (J)", f"{report.fault_energy:.1f} "
                       f"(baseline {report.baseline_energy:.1f})"],
        ["energy overhead", f"{report.energy_overhead:+.1%}"],
        ["missed targets", f"{report.violations} "
                           f"(baseline {report.baseline_violations})"],
        ["calibration failures", report.calibration_failures],
        ["demotions / promotions",
         f"{report.demotions} / {report.promotions}"],
        ["final tier", report.final_tier],
        ["recovered to tier 0", report.recovered],
        ["faults injected",
         ", ".join(f"{kind} x{n}"
                   for kind, n in sorted(report.fault_counts.items()))
         or "none"],
    ]
    print(format_table(
        ["", ""], rows,
        title=(f"{args.benchmark} under the {args.plan!r} fault plan "
               f"({args.windows} x {args.deadline:g}s windows, "
               f"seed {args.seed})")))
    return 0 if report.survived else 1


def _parse_horizon(text: str) -> float:
    if text.endswith(("d", "D")):
        return float(text[:-1]) * 86400.0
    return float(text)


def _cmd_soak(args: argparse.Namespace) -> int:
    import json
    import pathlib

    from repro.errors import FaultPlanError
    from repro.soak import SoakConfig, soak_run

    try:
        horizon = _parse_horizon(args.horizon)
    except ValueError:
        print(f"--horizon must be seconds or '<days>d', "
              f"got {args.horizon!r}", file=sys.stderr)
        return 1
    overrides = {"plan": args.plan, "horizon_s": horizon,
                 "tenants": args.tenants, "seed": args.seed}
    if args.cap is not None:
        overrides["cap_watts"] = args.cap
    try:
        report = soak_run(SoakConfig(**overrides))
    except (FaultPlanError, ValueError) as exc:
        print(exc, file=sys.stderr)
        return 1
    rows = [
        ["passed", report.passed],
        ["segments", report.segments_run],
        ["simulated", f"{report.simulated_s / 86400.0:.2f} days "
                      f"in {report.wall_s:.1f}s wall "
                      f"({report.sim_per_wall:.0f}x)"],
        ["deadline hit rate", f"{report.deadline_hit_rate:.1%}"],
        ["availability", f"{report.availability:.1%}"],
        ["fleet probes", f"{report.probes_ok} ok / "
                         f"{report.probes_shed} shed / "
                         f"{report.probes_failed} failed"],
        ["resume probes", report.resume_probes],
        ["canary demotions / promotions",
         f"{report.canary_demotions} / {report.canary_promotions}"],
        ["canary final tier", report.canary_final_tier],
        ["energy regret (J)", f"{report.energy_regret_j:.0f}"],
        ["faults injected",
         ", ".join(f"{kind} x{n}"
                   for kind, n in sorted(report.fault_counts.items()))
         or "none"],
        ["fingerprint", report.fingerprint[:16]],
    ]
    print(format_table(
        ["", ""], rows,
        title=(f"{args.plan!r} soak, {args.tenants} tenants, "
               f"seed {args.seed}")))
    if report.incidents:
        print()
        print(format_table(
            ["incident", "segments", "regret (J)", "MTTR (h)",
             "recovered"],
            [[inc.name, inc.segments, f"{inc.energy_regret_j:.0f}",
              (f"{inc.mttr_s / 3600.0:.1f}"
               if inc.mttr_s is not None else "-"),
              "yes" if inc.recovered else "NO"]
             for inc in report.incidents],
            title="incidents"))
    if report.violations:
        print()
        print(format_table(
            ["invariant", "at (s)", "detail"],
            [[v.invariant, f"{v.at_s:.0f}", v.detail]
             for v in report.violations],
            title="INVARIANT VIOLATIONS"))
    if args.json is not None:
        target = pathlib.Path(args.json)
        target.parent.mkdir(parents=True, exist_ok=True)
        payload = report.to_dict()
        payload["fingerprint"] = report.fingerprint
        target.write_text(json.dumps(payload, indent=2,
                                     default=float) + "\n")
        print(f"report -> {args.json}", file=sys.stderr)
    if args.slo is not None:
        target = pathlib.Path(args.slo)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(json.dumps(report.slo, indent=2,
                                     default=float) + "\n")
        print(f"slo -> {args.slo}", file=sys.stderr)
    return 0 if report.passed else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.obs import MetricsRegistry
    from repro.service import (EstimationService, ModelRegistry,
                               ServiceAddress, ServiceServer)
    try:
        address = ServiceAddress.parse(args.listen)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 1
    registry = (ModelRegistry(args.registry)
                if args.registry is not None else None)
    service = EstimationService(registry=registry,
                                default_estimator=args.estimator)
    if args.trace is not None:
        observability = Observability.recording()
    else:
        observability = Observability(metrics=MetricsRegistry())
    server = ServiceServer(service, address,
                           max_pending=args.max_pending,
                           default_deadline_s=args.deadline,
                           max_workers=args.workers,
                           observability=observability)

    def _ready(bound: object) -> None:
        # The launch handshake: harnesses wait for this exact line to
        # learn the ephemeral port, so it must flush immediately.
        print(f"SERVING {bound}", flush=True)

    code = 0
    try:
        asyncio.run(server.serve(ready=_ready))
    except KeyboardInterrupt:
        pass
    except OSError as exc:
        print(exc, file=sys.stderr)
        code = 1
    if args.trace is not None:
        spans = list(observability.tracer.spans) + server.request_spans
        write_trace(args.trace, spans)
        print(f"trace: {len(spans)} spans -> {args.trace}",
              file=sys.stderr)
    if args.metrics is not None:
        server.metrics.write_json(args.metrics)
        print(f"metrics -> {args.metrics}", file=sys.stderr)
    if args.slo is not None:
        _write_slo_report(observability, args.slo)
    return code


def _cmd_request(args: argparse.Namespace) -> int:
    from repro.service import ServiceAddress, ServiceClient, ServiceError
    from repro.service.protocol import decode_frame, encode_frame
    try:
        address = ServiceAddress.parse(args.address)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 1
    client = ServiceClient(address, timeout=args.timeout,
                           retries=args.retries,
                           retry_overloaded=args.retry_overloaded)
    try:
        payload = (decode_frame(args.payload.encode("utf-8"))
                   if args.payload else {})
        reply = {"ok": True, "payload": client.call(
            args.op, payload, deadline_s=args.deadline)}
    except ServiceError as exc:
        reply = {"ok": False, "error": {"type": exc.code,
                                        "message": str(exc),
                                        "details": exc.details}}
    except (ConnectionError, OSError) as exc:
        print(f"cannot reach {address}: {exc}", file=sys.stderr)
        return 1
    finally:
        client.close()
    sys.stdout.write(encode_frame(reply).decode("utf-8"))
    return 0 if reply["ok"] else 1


def _cmd_shard(args: argparse.Namespace) -> int:
    import json

    from repro.errors import ShardUnavailable
    from repro.shard import ShardFleet, ShardedServiceClient
    if args.shards < 1:
        print("--shards must be >= 1", file=sys.stderr)
        return 1
    rng = np.random.default_rng(args.seed)
    with ShardFleet(num_shards=args.shards,
                    replicas_per_shard=args.replicas,
                    max_pending=args.max_pending) as fleet:
        with ShardedServiceClient(fleet.addresses) as client:
            routed: dict = {shard_id: 0 for shard_id in fleet.shard_ids}
            shed = 0
            for index in range(args.tenants):
                tenant = f"tenant-{index}"
                shard_id = client.router.owner(tenant)
                for _ in range(args.requests):
                    try:
                        client.ping(echo=int(rng.integers(1 << 16)),
                                    tenant_key=tenant)
                        routed[shard_id] += 1
                    except ShardUnavailable:
                        shed += 1
            report = {
                "shards": {
                    shard_id: {
                        "address": str(address),
                        "healthy": client.router.is_up(shard_id),
                        "requests": routed[shard_id],
                    }
                    for shard_id, address in fleet.addresses.items()
                },
                "shed": shed,
                "replication_lag_s": fleet.replication_lag(),
                "metrics": client.metrics(),
            }
    print(json.dumps(report, indent=2, default=float))
    return 0 if shed == 0 else 1


def _read_span_shards(paths: List[str]):
    """Merge JSONL trace shards, or ``None`` after printing the error."""
    from repro.obs import read_shards
    try:
        spans = read_shards(paths)
    except (OSError, ValueError) as exc:
        print(exc, file=sys.stderr)
        return None
    if not spans:
        print(f"no spans in {', '.join(paths)}", file=sys.stderr)
        return None
    return spans


def _cmd_obs_summarize(paths: List[str]) -> int:
    from repro.obs import orphan_spans
    from repro.reporting.span_tree import render_span_tree, summarize_spans
    spans = _read_span_shards(paths)
    if spans is None:
        return 1
    try:
        print(render_span_tree(spans))
        print()
        rows = [[name, int(agg["count"]), agg["total_s"], agg["mean_s"]]
                for name, agg in summarize_spans(spans).items()]
        shards = (f"{len(paths)} shards" if len(paths) > 1
                  else paths[0])
        print(format_table(["span", "count", "total s", "mean s"], rows,
                           title=f"{len(spans)} spans ({shards})"))
        orphans = orphan_spans(spans)
        if orphans:
            # A missing shard shows up here, not as silently flatter
            # trees: every orphan names the parent that never arrived.
            print(f"warning: {len(orphans)} orphaned spans "
                  f"(parent outside the merged shards): "
                  f"{sorted({s.name for s in orphans})}",
                  file=sys.stderr)
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; not an error.  Redirect
        # stdout to devnull so the interpreter's exit flush stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    return 0


def _cmd_obs_critical_path(paths: List[str]) -> int:
    from repro.reporting.span_tree import critical_path
    spans = _read_span_shards(paths)
    if spans is None:
        return 1
    path = critical_path(spans)
    if not path:
        print("no rooted spans", file=sys.stderr)
        return 1
    total = path[0].duration
    rows = []
    for depth, span in enumerate(path):
        child_time = sum(c.duration for c in path[depth + 1:depth + 2])
        rows.append(["  " * depth + span.name, span.duration,
                     span.duration - child_time,
                     100.0 * span.duration / total if total else 0.0])
    print(format_table(["span", "total s", "self s", "% of root"], rows,
                       title=f"critical path ({len(path)} spans, "
                             f"{total:.3f}s)"))
    return 0


def _cmd_obs_slo(paths: List[str]) -> int:
    import json

    from repro.obs import MetricsRegistry, SloTracker
    registry = MetricsRegistry()
    for path in paths:
        try:
            data = json.loads(open(path, encoding="utf-8").read())
        except (OSError, ValueError) as exc:
            print(exc, file=sys.stderr)
            return 1
        if not isinstance(data, dict):
            print(f"{path}: not a metrics JSON object", file=sys.stderr)
            return 1
        # ``--metrics`` files carry raw values under ``raw_histograms``
        # (the lossless dump); plain ``histograms`` summaries cannot be
        # merged, so only list-valued entries there are accepted.
        raw = data.get("raw_histograms",
                       {name: values
                        for name, values in
                        data.get("histograms", {}).items()
                        if isinstance(values, list)})
        registry.merge({
            "counters": data.get("counters", {}),
            "gauges": data.get("gauges", {}),
            "histograms": raw,
        })
    tracker = SloTracker.from_metrics(registry.dump())
    report = tracker.report()
    rows = [[s["name"], s["kind"], s["target"], s["samples"],
             s["observed"], "yes" if s["met"] else "NO",
             s["burn_rate_total"], s["budget_remaining"]]
            for s in report["objectives"]]
    print(format_table(
        ["objective", "kind", "target", "samples", "observed", "met",
         "burn rate", "budget left"], rows,
        title=f"SLOs over {len(paths)} metrics file(s)"))
    if report["events"]:
        print()
        print(format_table(
            ["event", "count"], sorted(report["events"].items()),
            title="resilience events"))
    return 0 if all(s["met"] for s in report["objectives"]) else 1


def _write_slo_report(observability: Observability, path: str) -> None:
    import json
    import pathlib

    target = pathlib.Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(observability.slo.report(), indent=2,
                                 default=float) + "\n")
    print(f"slo -> {path}", file=sys.stderr)


def _run_with_observability(command, args: argparse.Namespace) -> int:
    """Run a command, recording trace/metrics/SLO artifacts when asked."""
    trace_path = getattr(args, "trace", None)
    metrics_path = getattr(args, "metrics", None)
    slo_path = getattr(args, "slo", None)
    if trace_path is None and metrics_path is None and slo_path is None:
        return command(args)
    observability = Observability.recording()
    with use(observability):
        code = command(args)
    if trace_path is not None:
        write_trace(trace_path, observability.tracer.spans)
        print(f"trace: {len(observability.tracer.spans)} spans "
              f"-> {trace_path}", file=sys.stderr)
    if metrics_path is not None:
        observability.metrics.write_json(metrics_path)
        print(f"metrics -> {metrics_path}", file=sys.stderr)
    if slo_path is not None:
        _write_slo_report(observability, slo_path)
    return code


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    if args.command == "list-benchmarks":
        return _cmd_list_benchmarks()
    if args.command == "show-benchmark":
        return _cmd_show_benchmark(args.name)
    if args.command == "estimate":
        return _run_with_observability(_cmd_estimate, args)
    if args.command == "optimize":
        return _run_with_observability(_cmd_optimize, args)
    if args.command == "reproduce":
        return _run_with_observability(_cmd_reproduce, args)
    if args.command == "cluster":
        return _run_with_observability(_cmd_cluster, args)
    if args.command == "hetero":
        return _run_with_observability(_cmd_hetero, args)
    if args.command == "chaos":
        return _run_with_observability(_cmd_chaos, args)
    if args.command == "soak":
        return _cmd_soak(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "request":
        return _cmd_request(args)
    if args.command == "shard":
        return _cmd_shard(args)
    if args.command == "obs":
        if args.action == "summarize":
            return _cmd_obs_summarize(args.path)
        if args.action == "critical-path":
            return _cmd_obs_critical_path(args.path)
        return _cmd_obs_slo(args.path)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
