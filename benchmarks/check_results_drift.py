#!/usr/bin/env python3
"""Fail when a regenerated paper-fidelity result drifts from its commit.

Run after the paper-fidelity figures (Fig. 5, 6, 9, 11, 12 and Table 1
at ``REPRO_BENCH_SCALE=1``) have rewritten their JSON under
``benchmarks/results/``:

    python benchmarks/check_results_drift.py

Every number in each file must equal the copy committed at ``HEAD``
(``git show HEAD:...``) to rtol 1e-9, the golden suite's tolerance, and
every other value must be equal.  A change that moves a figure
re-records it instead of leaving the committed copy behind.  Exits 1
and names each differing path with both values.
"""

import json
import math
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
FILES = ("fig05_perf_accuracy", "fig06_power_accuracy", "fig09_pareto",
         "fig11_energy_summary", "fig12_sensitivity", "fig13_table1_phases")
RTOL = 1e-9


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _drift(new, old, path):
    """Yield one message per value of ``new`` that differs from ``old``."""
    if isinstance(new, dict) and isinstance(old, dict) \
            and new.keys() == old.keys():
        for key in old:
            yield from _drift(new[key], old[key], f"{path}.{key}")
    elif isinstance(new, list) and isinstance(old, list) \
            and len(new) == len(old):
        for i, (a, b) in enumerate(zip(new, old)):
            yield from _drift(a, b, f"{path}[{i}]")
    elif _is_number(new) and _is_number(old):
        same = new == old or (math.isnan(new) and math.isnan(old))
        if not same and not abs(new - old) <= RTOL * abs(old):
            yield f"{path}: regenerated {new!r}, committed {old!r}"
    elif new != old:
        yield f"{path}: regenerated {new!r}, committed {old!r}"


def main() -> int:
    problems = []
    for name in FILES:
        relative = f"benchmarks/results/{name}.json"
        committed = subprocess.run(
            ["git", "show", f"HEAD:{relative}"], cwd=ROOT, check=True,
            capture_output=True, text=True).stdout
        regenerated = (ROOT / relative).read_text()
        problems += _drift(json.loads(regenerated), json.loads(committed),
                           relative)
    for problem in problems:
        print(problem, file=sys.stderr)
    print(f"{len(problems)} value(s) differ from the committed results"
          if problems else f"{len(FILES)} result files match HEAD")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
