"""CI smoke check for the resilience layer (docs/RESILIENCE.md).

Usage::

    PYTHONPATH=src python benchmarks/chaos_smoke.py

Runs one benchmark on the small ``cores`` space under the shipped
``default`` fault plan on each of the seeds 0-5, and checks the
acceptance criteria of the resilience work end to end on every seed:

* **zero crashes** — the controller survives every fault class in the
  default plan without an unhandled exception;
* **bounded violations** — faulted windows missing the work target are
  capped (the baseline misses none);
* **recovery** — faults demote the estimator down the ladder while
  active, and the controller promotes back to LEO (tier 0) once they
  clear, with at least as many promotions as demotions (a probe that
  falls back is not a demotion);
* **bounded energy overhead** — surviving the faults costs a bounded
  premium over the fault-free baseline;
* **null-plan identity** — a chaos run under the empty ``none`` plan is
  bit-identical to the fault-free baseline (the hooks are free);
* **determinism** — a repeated run with the same seed reproduces the
  report exactly.

Kept out of the ``test_*`` namespace on purpose: it is a CI gate over
the whole degrade-and-recover loop, not a figure reproduction.
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
sys.path.insert(0, str(SRC))

from repro.experiments.chaos import chaos_run  # noqa: E402
from repro.experiments.harness import default_context  # noqa: E402

SEEDS = range(6)
BENCHMARK = "kmeans"
MAX_VIOLATIONS = 1
MAX_ENERGY_OVERHEAD = 0.60


def check_seed(seed: int) -> None:
    ctx = default_context(space_kind="cores", seed=seed)

    report = chaos_run(ctx, benchmark=BENCHMARK, plan="default",
                       seed=seed)
    print(f"seed {seed}, default plan: survived={report.survived} "
          f"windows={report.windows_run}/{report.windows} "
          f"violations={report.violations} "
          f"overhead={report.energy_overhead:+.1%} "
          f"demotions={report.demotions} promotions={report.promotions} "
          f"final_tier={report.final_tier}")
    print(f"faults: {report.fault_counts}")

    assert report.survived, f"controller crashed: {report.error}"
    assert report.windows_run == report.windows
    assert report.baseline_violations == 0, (
        f"fault-free baseline missed {report.baseline_violations} targets")
    assert report.violations <= MAX_VIOLATIONS, (
        f"{report.violations} faulted windows missed the target "
        f"(allowed {MAX_VIOLATIONS})")
    assert report.fault_counts, "the default plan injected nothing"
    assert report.demotions >= 1, (
        "the default plan should force at least one demotion")
    assert report.recovered and report.final_tier == "leo", (
        f"expected promotion back to LEO after the faults cleared, "
        f"ended at {report.final_tier!r}")
    assert report.promotions >= report.demotions, (
        f"{report.demotions} demotions but only {report.promotions} "
        f"promotions: the ladder never climbed all the way back")
    assert 0.0 <= report.energy_overhead <= MAX_ENERGY_OVERHEAD, (
        f"energy overhead {report.energy_overhead:+.1%} outside "
        f"[0, {MAX_ENERGY_OVERHEAD:.0%}]")

    null = chaos_run(ctx, benchmark=BENCHMARK, plan="none", seed=seed)
    assert null.survived and not null.fault_counts
    assert null.fault_energy == null.baseline_energy, (
        "the empty plan must be bit-identical to the fault-free baseline")
    assert null.demotions == 0 and null.violations == 0

    repeat = chaos_run(ctx, benchmark=BENCHMARK, plan="default",
                       seed=seed)
    assert repeat == report, "fixed-seed chaos run must be bit-identical"


def main() -> int:
    for seed in SEEDS:
        check_seed(seed)
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
