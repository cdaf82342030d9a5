#!/usr/bin/env python3
"""The estimation service: two tenants, one calibration.

LEO's Section 6.7 argument is that estimation cost amortizes — once one
application's curves are fitted, later users of the same model pay
nothing.  The ``repro.service`` subsystem turns that from a property of
one process into a property of a deployment: an estimation server owns a
versioned model registry, many clients share it, and a returning tenant
gets published curves back without sampling a single configuration.

This demo stands up a real server (in a background thread, over a real
socket), then:

1. tenant A asks for kmeans curves on the cores-only space — a cold
   start: the server samples, fits LEO, and publishes version 1;
2. tenant B asks for the *same* model — a warm start: the registry
   answers with identical curves and ``samples_used: 0``;
3. the broker's own metrics show both requests, and the registry
   directory shows the published, schema-versioned record.

Run:  python examples/service_demo.py
"""

import tempfile
import time
from pathlib import Path

import numpy as np

from repro.service import (
    EstimationService,
    ModelRegistry,
    ServerThread,
    ServiceClient,
)


def main() -> None:
    registry_dir = Path(tempfile.mkdtemp(prefix="leo_registry_"))
    service = EstimationService(registry=ModelRegistry(registry_dir))

    with ServerThread(service, max_pending=8, max_workers=2) as thread:
        address = thread.bound_address
        print(f"Estimation service listening on {address}")
        print(f"Model registry at {registry_dir}\n")

        print("Tenant A: calibrate kmeans on the cores space (cold)...")
        started = time.perf_counter()
        with ServiceClient(address, timeout=300.0) as tenant_a:
            cold = tenant_a.calibrate_report(
                "kmeans", space="cores", samples=6, estimator="leo",
                deadline_s=240.0)
        cold_seconds = time.perf_counter() - started
        print(f"  source={cold['source']}  samples_used="
              f"{cold['samples_used']}  version={cold['version']}  "
              f"perf-accuracy={cold['accuracy_performance']:.3f}  "
              f"({cold_seconds:.1f}s)\n")

        print("Tenant B: request the same model (warm)...")
        started = time.perf_counter()
        with ServiceClient(address, timeout=300.0) as tenant_b:
            warm = tenant_b.calibrate_report(
                "kmeans", space="cores", samples=6, estimator="leo")
        warm_seconds = time.perf_counter() - started
        print(f"  source={warm['source']}  samples_used="
              f"{warm['samples_used']}  ({warm_seconds:.3f}s)")
        identical = all(
            np.asarray(warm[key]).tobytes() == np.asarray(cold[key]).tobytes()
            for key in ("rates", "powers"))
        print(f"  curves identical to tenant A's: {identical}")
        if cold_seconds > 0 and warm_seconds > 0:
            print(f"  warm start is ~{cold_seconds / warm_seconds:,.0f}x "
                  f"faster: the sampling cost was paid once\n")

        with ServiceClient(address) as probe:
            snapshot = probe.metrics()
            listing = probe.registry_list()
        print("Broker counters:")
        for name, value in sorted(
                snapshot["metrics"]["counters"].items()):
            print(f"  {name:32s} {value:g}")
        print("\nRegistry contents:")
        for model in listing["models"]:
            print(f"  {model['app']} / {model['estimator']} / "
                  f"{model['num_configs']} configs -> "
                  f"v{model['latest_version']}")

    record = next((registry_dir / "models").rglob("v*.json"))
    print(f"\nPublished record on disk: {record.relative_to(registry_dir)}")
    print("A second server pointed at this directory would warm-start "
          "immediately.")


if __name__ == "__main__":
    main()
