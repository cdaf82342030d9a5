"""CI smoke check for the sharded service: fleet, routing, and chaos.

Usage::

    PYTHONPATH=src python benchmarks/shard_smoke.py

Drives the ``repro.shard`` stack the way the acceptance criteria are
written:

* the consistent-hash router must be bit-deterministic across
  instances and remap only the lost shard's tenants when one leaves;
* a ``RemoteEstimator``-shaped ``estimate`` over the fleet must be
  bit-identical to local execution;
* under the ``shard-loss`` fault plan a crashed broker's tenants shed
  with the typed ``ShardUnavailable`` while every other shard keeps
  answering — and the same holds when a real broker is stopped;
* the fleet-scale load run (8 clients x 400 requests = 3200, 100x the
  single-broker experiment) must complete with its p99 latency SLO met.

Kept out of the ``test_*`` namespace on purpose: it is a CI gate over
the fleet + socket path, not a figure reproduction.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
sys.path.insert(0, str(SRC))

from repro.errors import ShardUnavailable  # noqa: E402  (path bootstrap)
from repro.estimators.base import EstimationProblem  # noqa: E402
from repro.estimators.registry import create_estimator  # noqa: E402
from repro.experiments.service_throughput import (  # noqa: E402
    sharded_throughput_experiment,
)
from repro.faults.context import use as use_injector  # noqa: E402
from repro.faults.injector import FaultInjector  # noqa: E402
from repro.faults.plans import get_plan  # noqa: E402
from repro.shard import (  # noqa: E402
    ShardFleet,
    ShardRouter,
    ShardedServiceClient,
)

SHARD_IDS = ("shard-0", "shard-1", "shard-2")


def _make_problem(seed: int, num_configs: int = 32) -> EstimationProblem:
    rng = np.random.default_rng(seed)
    indices = np.arange(0, num_configs, max(1, num_configs // 6))
    return EstimationProblem(
        features=rng.random((num_configs, 3)),
        prior=rng.random((4, num_configs)) + 0.5,
        observed_indices=indices,
        observed_values=rng.random(len(indices)) + 0.5)


def _tenant_on(router: ShardRouter, shard_id: str) -> str:
    """A tenant key the router assigns to ``shard_id``."""
    for index in range(10_000):
        tenant = f"tenant-{index}"
        if router.owner(tenant) == shard_id:
            return tenant
    raise AssertionError(f"no tenant hashes to {shard_id}")


def check_router() -> None:
    """Determinism across instances; minimal remap on shard loss."""
    tenants = [f"tenant-{i}" for i in range(500)]
    first = ShardRouter(SHARD_IDS)
    second = ShardRouter(SHARD_IDS)
    owners = {t: first.owner(t) for t in tenants}
    assert owners == {t: second.owner(t) for t in tenants}, (
        "two routers over the same shards must agree on every tenant")

    survivors = ShardRouter(("shard-0", "shard-2"))
    moved = stayed = 0
    for tenant, owner in owners.items():
        if owner == "shard-1":
            moved += 1
        else:
            assert survivors.owner(tenant) == owner, (
                f"{tenant} moved off surviving shard {owner}")
            stayed += 1
    assert moved and stayed, owners
    print(f"router: deterministic over {len(tenants)} tenants; removing "
          f"shard-1 remapped only its {moved} tenants ({stayed} stayed)")


def check_bit_equality(fleet: ShardFleet) -> None:
    """Fleet estimates == local execution, bit for bit."""
    problem = _make_problem(seed=42)
    local = create_estimator("offline").estimate(problem)
    with ShardedServiceClient(fleet.addresses) as client:
        remote = client.estimate(problem, estimator="offline",
                                 tenant_key="bit-eq")
    assert remote.tobytes() == local.tobytes(), (
        "fleet estimate drifted from local execution")
    print("bit-equality: fleet estimate identical to local execution")


def check_shard_loss_plan(fleet: ShardFleet) -> None:
    """The shard-loss plan sheds the crashed shard, not the fleet."""
    with ShardedServiceClient(fleet.addresses) as client:
        victim_tenant = _tenant_on(client.router, "shard-1")
        other_tenant = _tenant_on(client.router, "shard-0")
        injector = FaultInjector(get_plan("shard-loss", seed=0))
        shed = 0
        with use_injector(injector):
            # broker-crash fires with p=1 on the first four routed
            # calls; pinning them to one tenant concentrates the
            # damage on its shard, which trips to down.
            for _ in range(4):
                try:
                    client.ping(tenant_key=victim_tenant)
                except ShardUnavailable as exc:
                    shed += 1
                    assert exc.details["shard"] == "shard-1", exc.details
        assert shed == 4, f"expected 4 injected sheds, got {shed}"
        assert not client.router.is_up("shard-1")
        # The third crash trips the shard; the fourth call sheds at the
        # router without ever reaching the injection site.
        assert injector.fired_counts.get("broker-crash") == 3, (
            injector.fired_counts)
        # The fleet stays up: tenants on healthy shards never noticed.
        assert client.ping(tenant_key=other_tenant)["pong"] is True
        # And the down shard keeps shedding cheaply, without transport.
        started = time.monotonic()
        try:
            client.ping(tenant_key=victim_tenant)
        except ShardUnavailable:
            pass
        else:
            raise AssertionError("down shard must shed its tenants")
        assert time.monotonic() - started < 0.5, "shedding must be fast"
        client.router.mark_up("shard-1")
        assert client.ping(tenant_key=victim_tenant)["pong"] is True
    print("shard-loss plan: injected crashes shed shard-1's tenant, "
          "shard-0 unaffected, recovery after mark_up")


def check_real_shard_loss() -> None:
    """Stopping a real broker sheds only its tenants."""
    with ShardFleet(num_shards=3, replicas_per_shard=0) as fleet:
        with ShardedServiceClient(fleet.addresses, timeout=5.0,
                                  retries=0) as client:
            victim_tenant = _tenant_on(client.router, "shard-2")
            other_tenant = _tenant_on(client.router, "shard-1")
            assert client.ping(tenant_key=victim_tenant)["pong"] is True
            fleet.stop_shard("shard-2")
            shed = 0
            for _ in range(client.router.failure_threshold):
                try:
                    client.ping(tenant_key=victim_tenant)
                except ShardUnavailable:
                    shed += 1
            assert shed == client.router.failure_threshold, shed
            assert not client.router.is_up("shard-2")
            assert client.ping(tenant_key=other_tenant)["pong"] is True
            healthy = client.metrics()
            assert set(healthy) == {"shard-0", "shard-1"}, set(healthy)
    print("real shard loss: stopped broker tripped to down after "
          f"{shed} transport failures; survivors kept serving")


def check_scale() -> None:
    """The acceptance run: 3200 requests, p99 SLO."""
    result = sharded_throughput_experiment()
    assert result.total_requests >= 3200, result.total_requests
    assert result.completed == result.total_requests, result.to_dict()
    assert result.unavailable == 0 and result.shed == 0, result.to_dict()
    objectives = {obj["name"]: obj for obj in result.slo["objectives"]}
    p99 = objectives["latency-p99"]
    assert p99["met"], result.slo
    print(f"scale: {result.completed} requests over {result.shards} "
          f"shards in {result.wall_seconds:.1f}s "
          f"({result.requests_per_second:.0f} rps), p99 "
          f"{p99['observed'] * 1e3:.0f}ms <= "
          f"{p99['target'] * 1e3:.0f}ms")


def main() -> int:
    check_router()
    with ShardFleet(num_shards=3, replicas_per_shard=1) as fleet:
        check_bit_equality(fleet)
        check_shard_loss_plan(fleet)
    check_real_shard_loss()
    check_scale()
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
