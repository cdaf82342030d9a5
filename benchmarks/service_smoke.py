"""CI smoke check for the estimation service, end to end over the CLI.

Usage::

    PYTHONPATH=src python benchmarks/service_smoke.py

Starts a real ``python -m repro serve`` subprocess (ephemeral port, one
worker, admission bound 2), then drives it the way a deployment would:

* concurrent ``sleep`` requests fill the admission budget and the next
  request must be shed with a typed ``ServiceOverloaded`` well inside
  its own deadline — the bounded-broker guarantee;
* a cold ``calibrate-report`` publishes version 1 to the registry and a
  second, warm request returns the identical curves with zero samples —
  the cross-tenant amortization guarantee;
* the version file that publish wrote is a schema-2 record (curves as
  base64 float64 bytes), and a schema-1 record with float lists, as an
  older build wrote it, is served warm with exactly its curves;
* a paper-space ``estimate`` (1024x4 features, a leave-one-out 24x1024
  prior, 20 samples, ``estimator="offline"``) must come back bit-equal
  to the in-process estimate — the request frame is far longer than
  asyncio's default 64 KiB stream limit;
* ``repro request`` run against the same server must print one JSON
  line whose calibrated curves are bit-equal to a client's reply;
* the broker's metrics must account for every one of those requests;
* the ``shutdown`` op must stop the server process cleanly (exit 0).

Kept out of the ``test_*`` namespace on purpose: it is a CI gate over
the subprocess + socket path, not a figure reproduction.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import threading
import time
import zlib
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
sys.path.insert(0, str(SRC))

from repro.estimators.base import EstimationProblem  # noqa: E402
from repro.estimators.registry import create_estimator  # noqa: E402
from repro.experiments import harness  # noqa: E402
from repro.service import (  # noqa: E402  (path bootstrap above)
    ServiceAddress,
    ServiceClient,
    ServiceOverloaded,
)

MAX_PENDING = 2


def start_server(registry_dir: str):
    """Launch ``repro serve`` and wait for its SERVING line."""
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--listen", "127.0.0.1:0", "--registry", registry_dir,
         "--max-pending", str(MAX_PENDING), "--workers", "1",
         "--deadline", "30"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        cwd=str(REPO), env=None)
    deadline = time.monotonic() + 60.0
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        if not line and process.poll() is not None:
            raise RuntimeError(
                f"server exited early (rc={process.returncode})")
        if line.startswith("SERVING "):
            return process, ServiceAddress.parse(line.split(None, 1)[1]
                                                 .strip())
    process.kill()
    raise RuntimeError("server never printed SERVING")


def check_admission(address) -> None:
    """Fill the budget with sleeps; the next request must shed fast."""
    occupiers = []

    def occupy():
        with ServiceClient(address, timeout=30.0) as client:
            occupiers.append(client.sleep(1.0, deadline_s=15.0))

    threads = [threading.Thread(target=occupy)
               for _ in range(MAX_PENDING)]
    for thread in threads:
        thread.start()
    wait_for_admitted(address, MAX_PENDING)

    with ServiceClient(address, timeout=30.0) as client:
        started = time.monotonic()
        try:
            client.sleep(0.1, deadline_s=5.0)
        except ServiceOverloaded as exc:
            elapsed = time.monotonic() - started
            assert elapsed < 5.0, f"shed took {elapsed:.1f}s >= deadline"
            assert exc.details.get("max_pending") == MAX_PENDING, exc.details
        else:
            raise AssertionError("request k+1 was admitted past the bound")
    for thread in threads:
        thread.join(30.0)
    assert len(occupiers) == MAX_PENDING, "admitted sleeps must complete"
    print(f"admission: bound {MAX_PENDING} held, overflow shed in "
          f"{elapsed * 1e3:.0f}ms")


def wait_for_admitted(address, count, timeout=10.0) -> None:
    deadline = time.monotonic() + timeout
    with ServiceClient(address, timeout=10.0) as client:
        while time.monotonic() < deadline:
            if client.metrics()["admission"]["admitted"] == count:
                return
            time.sleep(0.02)
    raise AssertionError(f"admitted never reached {count}")


def check_warm_start(address) -> int:
    with ServiceClient(address, timeout=300.0) as client:
        cold = client.calibrate_report("kmeans", space="cores", samples=6,
                                       estimator="leo", deadline_s=240.0)
        warm = client.calibrate_report("kmeans", space="cores", samples=6,
                                       estimator="leo", deadline_s=240.0)
    assert cold["source"] == "calibration" and cold["version"] == 1, cold
    assert warm["source"] == "registry", warm
    assert warm["samples_used"] == 0, warm
    for key in ("rates", "powers"):
        assert warm[key].tobytes() == cold[key].tobytes(), (
            f"warm {key} must be identical")
    print("warm start: version 1 published, second tenant used 0 samples")
    return cold["num_configs"]


def check_older_records(address, registry: str, num_configs: int) -> None:
    """Schema 2 on disk; a schema-1 record still serves warm."""
    key = f"kmeans--{num_configs}--leo"
    published = json.loads(
        (Path(registry) / "models" / key / "v000001.json").read_text())
    assert published["schema_version"] == 2, published["schema_version"]
    assert all(isinstance(published[k], str) for k in ("rates", "powers"))

    app = "x264"
    rng = np.random.default_rng(11)
    rates = rng.uniform(0.5, 40.0, num_configs)
    powers = rng.uniform(80.0, 250.0, num_configs)
    crc = zlib.crc32(powers.tobytes(), zlib.crc32(rates.tobytes()))
    record = {"schema_version": 1, "app": app, "estimator": "leo",
              "num_configs": num_configs, "version": 1,
              "rates": rates.tolist(), "powers": powers.tolist(),
              "crc32": crc, "metadata": {}, "created_unix": 0.0}
    key = f"{app}--{num_configs}--leo"
    version_file = Path(registry) / "models" / key / "v000001.json"
    version_file.parent.mkdir(parents=True)
    version_file.write_text(json.dumps(record) + "\n")
    os.link(version_file, Path(registry) / "latest" / f"{key}.json")
    with ServiceClient(address, timeout=60.0) as client:
        warm = client.calibrate_report(app, space="cores", estimator="leo",
                                       deadline_s=30.0)
    assert warm["source"] == "registry" and warm["samples_used"] == 0, warm
    assert warm["rates"].tobytes() == rates.tobytes(), "schema-1 rates"
    assert warm["powers"].tobytes() == powers.tobytes(), "schema-1 powers"
    print("registry records: publish wrote schema 2, a schema-1 record "
          "served warm bit-equal")


def check_paper_estimate(address) -> None:
    """A paper-scale estimate over the wire equals the local one."""
    ctx = harness.default_context("paper", 0)
    app = ctx.benchmark_names[0]
    view = ctx.dataset.leave_one_out(app)
    indices = harness.random_indices(len(ctx.space), 20, seed=1)
    _, powers = harness.sample_target(ctx, ctx.profile(app), indices)
    problem = EstimationProblem(features=ctx.features,
                                prior=view.prior_powers,
                                observed_indices=indices,
                                observed_values=powers)
    local = create_estimator("offline").estimate(problem).tobytes()
    with ServiceClient(address, timeout=60.0) as client:
        remote = client.estimate(problem, estimator="offline",
                                 deadline_s=30.0)
    assert remote.tobytes() == local, (
        "estimate differs from the in-process one")
    print(f"paper estimate: {problem.features.shape} features, "
          f"{problem.prior.shape} prior, bit-equal to in-process")


def check_request_command(address) -> None:
    """``repro request`` prints one JSON line equal to a client's reply."""
    payload = {"app": "kmeans", "space": "cores", "samples": 6,
               "estimator": "offline"}
    process = subprocess.run(
        [sys.executable, "-m", "repro", "request", str(address),
         "calibrate-report", "--payload", json.dumps(payload)],
        capture_output=True, text=True, cwd=str(REPO), timeout=120.0)
    assert process.returncode == 0, process.stderr
    assert process.stdout.count("\n") == 1, process.stdout[:200]
    printed = json.loads(process.stdout)
    assert printed["ok"] is True, printed
    with ServiceClient(address, timeout=60.0) as client:
        direct = client.call("calibrate-report", payload)
    for key in ("rates", "powers"):
        assert (np.asarray(printed["payload"][key]).tobytes()
                == direct[key].tobytes()), f"printed {key} differ"
    print("repro request: one JSON line, curves bit-equal to the client's")


def check_metrics(address) -> None:
    with ServiceClient(address) as client:
        counters = client.metrics()["metrics"]["counters"]
    assert counters.get("service_requests_total", 0) >= 5, counters
    assert counters.get("service_shed_total", 0) >= 1, counters
    print(f"metrics: {counters.get('service_requests_total', 0):.0f} "
          f"requests, {counters.get('service_shed_total', 0):.0f} shed")


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="leo_smoke_reg_") as registry:
        process, address = start_server(registry)
        try:
            with ServiceClient(address, timeout=10.0) as client:
                assert client.ping()["pong"] is True
            check_admission(address)
            num_configs = check_warm_start(address)
            check_older_records(address, registry, num_configs)
            check_paper_estimate(address)
            check_request_command(address)
            check_metrics(address)
            with ServiceClient(address, timeout=10.0) as client:
                assert client.shutdown() == {"stopping": True}
            process.wait(timeout=30.0)
            assert process.returncode == 0, (
                f"server exited {process.returncode}")
        except BaseException:
            process.kill()
            output = process.stdout.read()
            if output:
                print(f"--- server output ---\n{output}", file=sys.stderr)
            raise
        finally:
            if process.poll() is None:
                process.kill()
            process.stdout.close()
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
