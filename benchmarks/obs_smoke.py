"""CI smoke check for distributed observability.

Usage::

    PYTHONPATH=src python benchmarks/obs_smoke.py [--artifacts DIR]

The gate behind docs/OBSERVABILITY.md's two core promises:

* **Zero cost when off, zero interference when on** — the mini
  accuracy sweep (perf_smoke's shape) must produce bit-identical
  results untraced and under a fully-recording bundle.  Tracing draws
  no RNG and reorders no work, so any divergence is a real
  instrumentation bug.
* **No span left behind** — the traced sweep plus one traced service
  round trip must merge into a single orphan-free tree holding the
  sweep's ``experiment.run`` root with its EM fits and the
  server-side shard.

Always writes ``trace.jsonl``, ``metrics.json`` and ``slo.json`` into
the artifacts directory (default ``obs-artifacts/``), so a CI failure
uploads the exact trace that misbehaved.

Kept out of the ``test_*`` namespace on purpose: it is a CI gate, not a
figure reproduction.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
sys.path.insert(0, str(SRC))

from repro.experiments.estimation import accuracy_experiment  # noqa: E402
from repro.experiments.harness import default_context  # noqa: E402
from repro.obs import (  # noqa: E402
    Observability,
    merge_spans,
    orphan_spans,
    use,
    write_trace,
)
from repro.service import (  # noqa: E402
    EstimationService,
    ServerThread,
    ServiceClient,
)

#: perf_smoke's mini-sweep shape, reused so the two gates time the same
#: work.
SWEEP = {"num_benchmarks": 3, "trials": 2, "sample_count": 20}


def run_sweep(observability):
    ctx = default_context(space_kind="paper", seed=0)
    names = ctx.benchmark_names[:SWEEP["num_benchmarks"]]
    with use(observability):
        return accuracy_experiment(
            ctx, sample_count=SWEEP["sample_count"],
            trials=SWEEP["trials"], benchmarks=names)


def traced_service_round_trip(observability):
    """One traced request over a real socket; returns the server shard."""
    with ServerThread(EstimationService(), max_pending=4,
                      max_workers=1) as thread:
        with ServiceClient(thread.bound_address, timeout=60.0) as client:
            with use(observability):
                client.call("sleep", {"seconds": 0.0})
        return thread.server.request_spans


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--artifacts", default="obs-artifacts",
                        help="directory for trace/metrics/slo artifacts")
    args = parser.parse_args()
    artifacts = Path(args.artifacts)
    artifacts.mkdir(parents=True, exist_ok=True)

    started = time.perf_counter()
    baseline = run_sweep(None)

    ob = Observability.recording()
    traced = run_sweep(ob)
    server_spans = traced_service_round_trip(ob)
    elapsed = time.perf_counter() - started

    merged = merge_spans(ob.tracer.spans, server_spans)
    write_trace(artifacts / "trace.jsonl", merged)
    ob.metrics.write_json(artifacts / "metrics.json")
    (artifacts / "slo.json").write_text(
        json.dumps(ob.slo.report(), indent=2) + "\n")

    failures = []
    if traced.perf != baseline.perf or traced.power != baseline.power:
        failures.append(
            "tracing changed experiment results: the traced sweep must "
            "be bit-identical to the untraced one")

    orphans = orphan_spans(merged)
    if orphans:
        failures.append(
            f"{len(orphans)} orphaned spans in the merged trace "
            f"(first: {orphans[0]!r})")

    names = {span.name for span in merged}
    for required in ("experiment.run", "em.fit",
                     "client.call", "service.request"):
        if required not in names:
            failures.append(f"span {required!r} missing from the merged "
                            "trace — a shard was dropped")

    print(f"sweep x2 + service round trip: {elapsed:.2f}s, "
          f"{len(merged)} merged spans")
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        print(f"artifacts in {artifacts}/", file=sys.stderr)
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
