"""CI performance smoke check: time a 3-benchmark mini accuracy sweep.

Usage::

    PYTHONPATH=src python benchmarks/perf_smoke.py --capture   # new baseline
    PYTHONPATH=src python benchmarks/perf_smoke.py             # check

The check re-times the sweep of ``benchmarks/perf_baseline.json`` and
fails (exit 1) when wall-clock exceeds ``max_slowdown`` (default 2.0)
times the committed baseline.  The threshold is deliberately loose —
CI machines are noisy and slower than dev boxes — so only a genuine
algorithmic regression (e.g. losing the batched E-step) trips it.

A machine-independent guard rides along with a tight threshold: the
Cholesky factorization count of the sweep
(``linalg_posterior_factorizations_total``) must not grow, which
catches regressions to per-application factorization that a fast
machine would hide.

Kept out of the ``test_*`` namespace on purpose: it is a CI gate, not a
figure reproduction.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

from repro.experiments.estimation import accuracy_experiment
from repro.experiments.harness import default_context
from repro.obs import Observability, use

BASELINE_PATH = pathlib.Path(__file__).parent / "perf_baseline.json"

#: The mini-sweep shape (first 3 benchmarks x 2 trials x 20 samples).
SWEEP = {"num_benchmarks": 3, "trials": 2, "sample_count": 20}


def run_sweep():
    """Time the mini-sweep; returns (seconds, factorizations, ob)."""
    ctx = default_context(space_kind="paper", seed=0)
    names = ctx.benchmark_names[:SWEEP["num_benchmarks"]]
    ob = Observability.recording()
    started = time.perf_counter()
    with use(ob):
        accuracy_experiment(
            ctx, sample_count=SWEEP["sample_count"], trials=SWEEP["trials"],
            benchmarks=names)
    elapsed = time.perf_counter() - started
    counters = ob.metrics.snapshot()["counters"]
    factorizations = counters.get("linalg_posterior_factorizations_total", 0)
    return elapsed, factorizations, ob


def dump_artifacts(ob, directory="obs-artifacts") -> None:
    """Export the sweep's trace and metrics for CI to upload on failure."""
    from repro.obs import write_trace

    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    write_trace(directory / "perf_smoke_trace.jsonl", ob.tracer.spans)
    ob.metrics.write_json(directory / "perf_smoke_metrics.json")
    print(f"observability artifacts written to {directory}/",
          file=sys.stderr)


def capture(max_slowdown: float) -> int:
    elapsed, factorizations, _ = run_sweep()
    payload = {
        "sweep": SWEEP,
        "serial_seconds": round(elapsed, 3),
        "factorizations": factorizations,
        "max_slowdown": max_slowdown,
    }
    BASELINE_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"baseline written to {BASELINE_PATH}: {payload}")
    return 0


def check() -> int:
    if not BASELINE_PATH.exists():
        print(f"no baseline at {BASELINE_PATH}; run with --capture first",
              file=sys.stderr)
        return 2
    baseline = json.loads(BASELINE_PATH.read_text())
    if baseline.get("sweep") != SWEEP:
        print("baseline sweep shape differs from the script; re-capture",
              file=sys.stderr)
        return 2

    elapsed, factorizations, ob = run_sweep()
    ratio = elapsed / baseline["serial_seconds"]
    print(f"serial sweep: {elapsed:.2f}s "
          f"(baseline {baseline['serial_seconds']:.2f}s, "
          f"ratio {ratio:.2f}x, limit {baseline['max_slowdown']:.1f}x)")
    print(f"factorizations: {factorizations:.0f} "
          f"(baseline {baseline['factorizations']:.0f})")

    failures = []
    if ratio > baseline["max_slowdown"]:
        failures.append(
            f"wall-clock regressed {ratio:.2f}x > "
            f"{baseline['max_slowdown']:.1f}x")
    if factorizations > baseline["factorizations"] * 1.05:
        failures.append(
            f"factorization count grew: {factorizations:.0f} vs baseline "
            f"{baseline['factorizations']:.0f} (the batched E-step "
            "regressed to per-application factorization?)")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        dump_artifacts(ob)
        return 1
    print("OK")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--capture", action="store_true",
                        help="write a new baseline instead of checking")
    parser.add_argument("--max-slowdown", type=float, default=2.0,
                        help="allowed wall-clock ratio (capture only)")
    args = parser.parse_args()
    if args.capture:
        return capture(args.max_slowdown)
    return check()


if __name__ == "__main__":
    sys.exit(main())
