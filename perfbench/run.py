#!/usr/bin/env python3
"""The repository's benchmark: one command, three workloads.

Usage::

    python3 perfbench/run.py --workload leo_paper|service_paper|cluster_cap \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``
of that checkout (the benchmark refuses to run without it).

``--trace 0`` sets the workload up several times (reporting the median
set-up time), then runs it as a closed loop for ``--seconds`` and at
least the workload's ``run_ops`` ops, and prints every end-to-end
metric.  ``--trace 1`` runs the first quarter of the time untraced and
the rest with the per-layer ledger installed (see ``ledger.py``), and
prints every per-layer metric plus the tracing overhead.  The last line
of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

Every process the benchmark starts runs with BLAS and OpenMP pools
pinned to one thread; the variables are set here, before numpy loads.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import pathlib  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from typing import Dict, List, Optional, Sequence  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Set-ups per untraced run; the median is reported as setup_s.
SETUP_REPEATS = 7

#: Speed exponent of every set-up.  Set-up is interpreter-bound in all
#: three workloads (the machine sweeps that build an experiment context,
#: in process or in the server), whatever the ops are.
SETUP_EXPONENT = 1.0

#: Share of a traced run measured without the ledger (the reference for
#: the tracing overhead).
UNTRACED_SHARE = 0.25

#: Ops each half of a traced run makes at least.
TRACED_MIN_OPS = 3

#: Relative tolerance for the per-seed quality values in expected.json.
QUALITY_RTOL = 1e-6

#: The committed seed and the one held out for later claims; both must
#: have their quality values recorded in expected.json.
RECORDED_SEEDS = (1, 7919)

#: End-to-end metrics and their units (the --trace 0 output).
END_TO_END = {
    "setup_s": "s", "op_s_p50": "s", "op_s_tail": "s", "ops_per_s": "1/s",
    "cpu_s_per_op": "s", "peak_rss_mb": "MB", "ok_frac": "frac",
    "accuracy": "frac", "energy_norm": "ratio", "energy_j_per_op": "J",
    "deadline_met_frac": "frac", "cap_ok_frac": "frac",
}

#: Quality metric -> the per-op value it averages.  A workload whose ops
#: carry no such value reports 1.0 for it ("not applicable": no cap is
#: set on leo_paper and service_paper, and no curve is estimated where a
#: user could read it on cluster_cap).
QUALITY = {"accuracy": "accuracy", "energy_norm": "energy_norm",
           "energy_j_per_op": "energy_j",
           "deadline_met_frac": "deadline_met", "cap_ok_frac": "cap_ok"}

#: Loose bands a quality value must fall in on seeds other than
#: RECORDED_SEEDS.
PLAUSIBLE = {"accuracy": (0.5, 1.0), "energy_norm": (0.95, 2.0),
             "energy_j_per_op": (1.0, 1e7), "deadline_met_frac": (0.9, 1.0),
             "cap_ok_frac": (1.0, 1.0)}


def nearest_rank(values: Sequence[float], q: float) -> float:
    """The nearest-rank ``q``-th percentile of ``values``."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(count: int) -> int:
    """The highest whole percentile with at least ten ops beyond it."""
    if count <= 10:
        return 0
    return int(math.floor(100.0 * (count - 10) / count))


#: Seconds the speed probe's kernel takes on the reference machine (the
#: 2-vCPU VM the bounds were set on, at its typical speed).
PROBE_NOMINAL_S = 0.0062

#: Minimum spacing of speed probes inside a measured window.
PROBE_INTERVAL_S = 0.1

#: Probes whose median sets an op's speed factor.
PROBE_SPAN = 3


class SpeedProbe:
    """Times a fixed, benchmark-owned kernel to track the host's speed.

    The shared VM's speed drifts by 10-30 % over seconds to minutes (a
    fixed pure-Python loop and a fixed BLAS product both wander that
    much).  Timing this kernel between ops gives a speed factor,
    ``(PROBE_NOMINAL_S / recent probe time) ** exponent``; time metrics
    are multiplied by it, so they read as seconds on the reference
    machine at its typical speed.  ``exponent`` is the workload's
    ``speed_exponent``: how strongly its op time follows the kernel's
    (a control-variate coefficient; it scales the correction, and at
    typical speed the factor is near 1 whatever it is).  The kernel
    does not touch the program, so a change to the program moves the
    metrics and not the factor.
    """

    def __init__(self, exponent: float = 1.0) -> None:
        import numpy as np
        self._matrix = np.random.default_rng(0).random((192, 192))
        self.exponent = exponent
        self.samples: List[float] = []
        self.last = -math.inf

    def __call__(self) -> float:
        began = time.perf_counter()
        total = 0
        for i in range(60000):
            total += i * i % 7
        for _ in range(4):
            self._matrix @ self._matrix
        self.last = time.perf_counter()
        took = self.last - began
        self.samples.append(took)
        return took

    def factor(self, samples: Optional[Sequence[float]] = None,
               exponent: Optional[float] = None) -> float:
        """Nominal over the median of ``samples`` (default: the last
        few), raised to ``exponent`` (default: the workload's)."""
        window = self.samples[-PROBE_SPAN:] if samples is None else samples
        power = self.exponent if exponent is None else exponent
        return (PROBE_NOMINAL_S / statistics.median(window)) ** power


class Window:
    """One closed-loop measurement: op times, failures, quality."""

    def __init__(self) -> None:
        self.raw_times: List[float] = []
        self.probes: List[float] = []
        self.times: List[float] = []
        self.quality: Dict[int, Dict[str, float]] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.start = self.end = 0.0
        self.cpu = 0.0


def measure(workload, seconds: float, min_ops: int,
            probe: SpeedProbe) -> Window:
    """Run ops back to back for ``seconds`` (and at least ``min_ops``).

    An op that raises, or whose output fails its check, counts as
    failed; the loop reconnects where the workload has a connection and
    carries on.  ``probe`` runs between ops, at most every
    ``PROBE_INTERVAL_S``; each op time is scaled by the speed factor of
    the probes just before it.
    """
    from loads import CheckFailed

    window = Window()
    cpu_start = workload.cpu_seconds()
    window.start = time.perf_counter()
    index = 0
    while (time.perf_counter() - window.start < seconds
           or index < min_ops):
        if time.perf_counter() - probe.last >= PROBE_INTERVAL_S:
            window.probes.append(probe())
        began = time.perf_counter()
        try:
            output = workload.op(index)
            elapsed = time.perf_counter() - began
            window.quality[index] = workload.check(index, output, elapsed)
            window.raw_times.append(elapsed)
            window.times.append(elapsed * probe.factor())
        except CheckFailed as exc:
            window.failed += 1
            window.problems.append(f"op {index}: {exc}")
        except Exception as exc:  # noqa: BLE001 - the loop must carry on
            window.failed += 1
            window.problems.append(
                f"op {index} raised {type(exc).__name__}: {exc}")
            reconnect = getattr(workload, "reconnect", None)
            if reconnect is not None:
                reconnect()
        index += 1
    window.end = time.perf_counter()
    window.cpu = workload.cpu_seconds() - cpu_start
    window.attempted = index
    return window


def normalized_cpu(window: Window) -> float:
    """The window's CPU seconds net of the probes, scaled by the ops'
    time-weighted speed factor."""
    raw = sum(window.raw_times)
    factor = sum(window.times) / raw if raw else 1.0
    return max(window.cpu - sum(window.probes), 0.0) * factor


def quality_values(window: Window, count: int) -> Dict[str, float]:
    """Mean of each quality value over ops ``0 .. count-1``.

    A failed op scores 0 on ``deadline_met`` (a failed request missed
    its deadline) and contributes nothing to the other values.
    """
    values: Dict[str, List[float]] = {}
    for index in range(count):
        quality = window.quality.get(index, {"deadline_met": 0.0})
        for key, value in quality.items():
            values.setdefault(key, []).append(float(value))
    return {metric: (statistics.fmean(values[key]) if key in values else 1.0)
            for metric, key in QUALITY.items()}


def check_quality(name: str, seed: int, quality: Dict[str, float]
                  ) -> List[str]:
    """Compare with the recorded per-seed values, or with loose bands."""
    expected = json.loads((HERE / "expected.json").read_text())
    recorded = expected.get(name, {}).get(str(seed))
    if recorded is None and seed in RECORDED_SEEDS:
        return [f"expected.json has no quality values for {name} seed {seed}"]
    problems = []
    for metric, value in quality.items():
        if recorded is not None:
            want = recorded[metric]
            if not math.isclose(value, want, rel_tol=QUALITY_RTOL):
                problems.append(f"{metric} = {value!r}, expected {want!r} "
                                f"for seed {seed}")
        else:
            low, high = PLAUSIBLE[metric]
            if not low <= value <= high:
                problems.append(f"{metric} = {value!r} outside "
                                f"[{low}, {high}]")
    return problems


def untraced_run(workload, seconds: float) -> dict:
    probe = SpeedProbe(workload.speed_exponent)
    setups = []
    raw_setups = []
    for repeat in range(SETUP_REPEATS):
        gc.collect()
        probe()
        began = time.perf_counter()
        workload.setup()
        raw_setups.append(time.perf_counter() - began)
        probe()
        setups.append(raw_setups[-1] * probe.factor(probe.samples[-2:],
                                                    SETUP_EXPONENT))
        if repeat < SETUP_REPEATS - 1:
            workload.teardown()
    try:
        window = measure(workload, seconds, workload.run_ops, probe)
        rss = workload.peak_rss_mb()
    finally:
        workload.teardown()
    factor = probe.factor(window.probes or None)
    problems = window.problems + workload.verify()
    quality = quality_values(window, workload.run_ops)
    problems += check_quality(workload.name, workload.seed, quality)
    times = window.times or [float("nan")]
    raw_times = window.raw_times or [float("nan")]
    tail_q = tail_percentile(workload.run_ops)
    metrics = {
        "setup_s": statistics.median(setups),
        "op_s_p50": nearest_rank(times, 50),
        "op_s_tail": nearest_rank(times, tail_q),
        "ops_per_s": len(window.times) / sum(window.times or [math.inf]),
        "cpu_s_per_op": normalized_cpu(window) / max(window.attempted, 1),
        "peak_rss_mb": rss,
        "ok_frac": (window.attempted - window.failed)
        / max(window.attempted, 1),
        **quality,
    }
    print(f"{workload.name} seed={workload.seed} ops={len(window.times)} "
          f"failed={window.failed} fail_frac="
          f"{window.failed / max(window.attempted, 1):.4f} "
          f"op_s_tail=p{tail_q} speed_factor={factor:.4f} raw: "
          f"setup_s={statistics.median(raw_setups):.6g} "
          f"op_s_p50={nearest_rank(raw_times, 50):.6g} "
          f"op_s_tail={nearest_rank(raw_times, tail_q):.6g} "
          f"ops_per_s={len(window.raw_times) / sum(raw_times):.6g} "
          f"cpu_s_per_op={window.cpu / max(window.attempted, 1):.6g}")
    return {"problems": problems, "attempted": window.attempted,
            "failed": window.failed,
            "metrics": {key: (metrics[key], unit)
                        for key, unit in END_TO_END.items()}}


def traced_run(workload, seconds: float) -> dict:
    import ledger

    probe = SpeedProbe(workload.speed_exponent)
    workload.setup()
    try:
        reference = measure(workload, seconds * UNTRACED_SHARE,
                            TRACED_MIN_OPS, probe)
    finally:
        workload.teardown()
    book = ledger.Ledger(side="load")
    ledger.install(book)
    server_records = str(workload.workdir / "server-ledger.jsonl")
    workload.setup(ledger_path=server_records)
    try:
        window = measure(workload, seconds * (1 - UNTRACED_SHARE),
                         TRACED_MIN_OPS, probe)
    finally:
        workload.teardown()
    records = list(book.records)
    if workload.server_records_path() is not None:
        records += ledger.load(server_records)
    metrics = ledger.layer_metrics(records, (window.start, window.end),
                                   window.attempted)
    metrics["trace.op_s_p50"] = (statistics.median(window.times)
                                 if window.times else 0.0)
    metrics["trace.overhead_frac"] = ledger.overhead(window.times,
                                                     reference.times)
    problems = reference.problems + window.problems + workload.verify()
    print(f"{workload.name} seed={workload.seed} traced ops="
          f"{len(window.times)} untraced ops={len(reference.times)} "
          f"records={len(records)}")
    return {"problems": problems,
            "attempted": reference.attempted + window.attempted,
            "failed": reference.failed + window.failed,
            "metrics": {key: (metrics[key], unit)
                        for key, unit in ledger.PER_LAYER.items()}}


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be >= 0")
    return value


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("leo_paper", "service_paper", "cluster_cap"))
    parser.add_argument("--seed", type=_seed, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}; run from the root "
              "of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import loads

    workdir = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = loads.WORKLOADS[args.workload](args.seed, workdir)
        workload.prepare()
        run = traced_run if args.trace else untraced_run
        result = run(workload, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in result["problems"]:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {key: {"value": value, "unit": unit}
                    for key, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
