#!/usr/bin/env python3
"""Record the per-seed quality values that ``run.py`` checks.

Usage (from the repository root)::

    python3 perfbench/record_expected.py SEED [SEED ...]

For every workload and seed, runs the workload's first ``run_ops``
ops exactly as a benchmark run does (untimed) and stores the quality
metrics in ``perfbench/expected.json``.  Re-record only when a change
is meant to alter what the program computes.
"""

import json
import shutil
import sys

import run


def main(argv) -> int:
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    import loads

    path = run.HERE / "expected.json"
    expected = json.loads(path.read_text())
    for name, cls in loads.WORKLOADS.items():
        for seed in (int(text) for text in argv):
            workdir = run.ROOT / ".perfbench" / f"record-{name}-{seed}"
            workdir.mkdir(parents=True, exist_ok=True)
            try:
                workload = cls(seed, workdir)
                workload.prepare()
                workload.setup()
                try:
                    window = run.measure(workload, 0.0, workload.run_ops,
                                         run.SpeedProbe())
                finally:
                    workload.teardown()
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            problems = window.problems + workload.verify()
            if problems:
                print(f"{name} seed {seed}: {problems}", file=sys.stderr)
                return 1
            quality = run.quality_values(window, workload.run_ops)
            expected.setdefault(name, {})[str(seed)] = quality
            print(f"{name} seed {seed}: {quality}")
    path.write_text(json.dumps(expected, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
