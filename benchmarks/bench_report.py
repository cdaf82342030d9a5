"""Bench reporter: one JSON perf record per PR, at the repo root.

Usage::

    PYTHONPATH=src python benchmarks/bench_report.py [--out PATH]
    PYTHONPATH=src python benchmarks/bench_report.py --quick  # skip slow gates

Runs the CI smoke gates (``perf_smoke``, ``service_smoke``,
``cluster_smoke``, ``obs_smoke``, ``hetero_smoke``, ``shard_smoke``,
``chaos_smoke``, ``soak_smoke``) as subprocesses,
times each, and lifts the key workload counters out of the obs gate's
exported metrics.  Also times the heterogeneous estimate path directly
(one transfer-prior calibration and one LEO fit on the enlarged
big.LITTLE configuration space), since that path's latency governs the
hetero sweep's cost.
The resulting ``BENCH_N.json`` files form the perf trajectory the
ROADMAP asks for: one committed record per PR, diffable across the
stack's growth, instead of anecdotal "feels faster" claims.  ``N`` is
one more than the highest record already at the repo root, so a run
never overwrites a committed one.

The record deliberately carries no timestamp: a re-run on the same tree
should produce the same file modulo wall-clock fields, so review diffs
show perf movement, not clock movement.

Kept out of the ``test_*`` namespace on purpose: it is a reporting
tool, not a figure reproduction.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent

#: Counters worth tracking across PRs (from the obs gate's registry).
KEY_COUNTERS = (
    "linalg_posterior_factorizations_total",
    "em_iterations_total",
)

#: The smoke gates, in rough order of usefulness when time is short.
GATES = ("perf_smoke", "service_smoke", "obs_smoke", "cluster_smoke",
         "hetero_smoke", "shard_smoke", "chaos_smoke", "soak_smoke")
QUICK_GATES = ("service_smoke", "obs_smoke")


def hetero_timings() -> dict:
    """Latency of the hetero estimate path on the enlarged space.

    Times the pieces the hetero sweep pays per cell: building the
    transfer prior (alignment of the 1024-config Xeon tables onto the
    big.LITTLE space) and one transfer-aware LEO fit over that space.
    """
    sys.path.insert(0, str(REPO / "src"))
    import numpy as np

    from repro.core.transfer import TransferPrior
    from repro.estimators import (
        EstimationProblem,
        TransferAwareLEO,
        normalize_problem,
    )
    from repro.experiments.harness import default_context, random_indices
    from repro.experiments.hetero_energy import DEFAULT_SPEED_INDICES
    from repro.platform.hetero import BIG_LITTLE, HeteroMachine, hetero_space
    from repro.platform.topology import PAPER_TOPOLOGY

    space = hetero_space(BIG_LITTLE, DEFAULT_SPEED_INDICES)
    ctx = default_context(space_kind="paper", seed=0)
    view = ctx.dataset.leave_one_out("kmeans")

    started = time.perf_counter()
    transfer = TransferPrior()
    transfer.add_platform(PAPER_TOPOLOGY, ctx.space,
                          view.prior_rates, view.prior_powers)
    transferred = transfer.build(BIG_LITTLE, space)
    calibrate_seconds = time.perf_counter() - started

    machine = HeteroMachine(BIG_LITTLE, seed=0)
    profile = ctx.profile("kmeans")
    truth, _ = machine.sweep(profile, space, noisy=False)
    indices = random_indices(len(space), 48, 7)
    problem = EstimationProblem(
        features=space.feature_matrix(), prior=transferred.rates,
        observed_indices=indices, observed_values=truth[indices])
    normalized, scale = normalize_problem(problem)
    started = time.perf_counter()
    estimate = TransferAwareLEO(
        blocks=transferred.blocks).estimate(normalized) * scale
    estimate_seconds = time.perf_counter() - started
    error = float(np.mean(np.abs(estimate - truth) / truth))
    return {
        "space_configs": len(space),
        "transfer_calibrate_seconds": round(calibrate_seconds, 3),
        "estimate_seconds": round(estimate_seconds, 3),
        "estimate_mean_relative_error": round(error, 4),
    }


def shard_timings() -> dict:
    """Throughput of a small sharded run.

    A deliberately modest load (2 shards x 2 clients x 50 requests) so
    the record tracks wire and routing overhead across PRs without
    re-paying the full acceptance run the shard gate already does.
    """
    sys.path.insert(0, str(REPO / "src"))
    from repro.experiments.service_throughput import (
        sharded_throughput_experiment,
    )

    result = sharded_throughput_experiment(
        shards=2, clients=2, requests_per_client=50, tenants=8)
    return {
        "requests": result.completed,
        "requests_per_second": round(result.requests_per_second, 1),
        "latency_p99_seconds": round(result.latency["p99"], 4),
    }


def soak_timings() -> dict:
    """Time compression of a short soak on the virtual clock.

    Runs half a simulated day of the default phased incident plan
    (16 tenants) and records simulated-seconds per wall-second — the
    number that makes multi-day soaks affordable in CI.  The report
    fingerprint is wall-free, so this field is the record's only
    nondeterminism.
    """
    import logging

    sys.path.insert(0, str(REPO / "src"))
    from repro.soak import SoakConfig, soak_run

    logging.disable(logging.WARNING)
    try:
        report = soak_run(SoakConfig(horizon_s=0.5 * 86400.0))
    finally:
        logging.disable(logging.NOTSET)
    return {
        "simulated_seconds": round(report.simulated_s, 1),
        "wall_seconds": round(report.wall_s, 2),
        "simulated_per_wall": round(report.sim_per_wall, 1),
        "segments": report.segments_run,
        "passed": report.passed,
        "availability": round(report.availability, 4),
        "fingerprint": report.fingerprint,
    }


def run_gate(name: str, extra_args=()) -> dict:
    """Run one smoke gate as a subprocess; never raises."""
    script = BENCH_DIR / f"{name}.py"
    started = time.perf_counter()
    process = subprocess.run(
        [sys.executable, str(script), *extra_args],
        cwd=REPO, capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(REPO / "src")))
    elapsed = time.perf_counter() - started
    record = {
        "name": name,
        "wall_seconds": round(elapsed, 2),
        "passed": process.returncode == 0,
    }
    if process.returncode != 0:
        record["exit_code"] = process.returncode
        record["stderr_tail"] = process.stderr.strip().splitlines()[-5:]
    return record


def next_bench_number(root: Path = REPO) -> int:
    """One more than the highest ``BENCH_<N>.json`` under ``root``."""
    numbers = [int(match.group(1)) for path in root.glob("BENCH_*.json")
               if (match := re.fullmatch(r"BENCH_(\d+)\.json", path.name))]
    return max(numbers, default=0) + 1


def main() -> int:
    bench = next_bench_number()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(REPO / f"BENCH_{bench}.json"),
                        help="where to write the report (default: the "
                             "next BENCH_<N>.json at the repo root)")
    parser.add_argument("--quick", action="store_true",
                        help="run only the fast gates")
    args = parser.parse_args()

    gates = QUICK_GATES if args.quick else GATES
    suites = []
    counters = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in gates:
            extra = (("--artifacts", tmp) if name == "obs_smoke" else ())
            record = run_gate(name, extra)
            suites.append(record)
            status = "ok" if record["passed"] else "FAIL"
            print(f"{name:<14} {record['wall_seconds']:7.2f}s  {status}")
        metrics_path = Path(tmp) / "metrics.json"
        if metrics_path.exists():
            exported = json.loads(metrics_path.read_text())
            counters = {
                key: exported.get("counters", {}).get(key, 0)
                for key in KEY_COUNTERS
            }

    report = {
        "bench": bench,
        "generator": "benchmarks/bench_report.py",
        "quick": bool(args.quick),
        "suites": suites,
        "counters": counters,
        "hetero": hetero_timings(),
        "shard": shard_timings(),
        "soak": soak_timings(),
        "total_wall_seconds": round(
            sum(s["wall_seconds"] for s in suites), 2),
        "all_passed": all(s["passed"] for s in suites),
    }
    out = Path(args.out)
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"report written to {out}")
    return 0 if report["all_passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
