"""Throughput characterization of the estimation service.

The service exists so that many tenants can share one estimation
backend; this experiment measures what that sharing costs.
:func:`sharded_throughput_experiment` stands up an in-process
:class:`~repro.shard.ShardFleet` (``shards=1`` is a single broker),
drives it with ``clients`` concurrent request loops of ``estimate``
requests routed per tenant key (cheap ``offline`` fits by default, so
the numbers characterize the brokers rather than the EM engine), and
reports latency percentiles, per-shard request counts and the p99
latency through an :class:`~repro.obs.slo.SloTracker` objective — the
fleet's acceptance number.

Each client loop runs in its own process, so the clients genuinely
overlap.  The *measurements* are wall-clock and therefore not
bit-stable across runs; the structural outputs (request counts, shed
and unavailable totals for a given mix) are deterministic.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import itertools
import time
from typing import Any, Dict, List, Tuple

import numpy as np

from repro.estimators.base import EstimationProblem
from repro.obs.metrics import Histogram
from repro.obs.slo import SloObjective, SloTracker
from repro.runtime.sampling import cell_seed
from repro.service import (
    ServiceClient,
    ServiceOverloaded,
    ShardUnavailable,
)

__all__ = [
    "ShardedThroughputResult",
    "sharded_throughput_experiment",
]


def _make_problem(seed: int, num_configs: int) -> EstimationProblem:
    rng = np.random.default_rng(seed)
    indices = np.arange(0, num_configs, max(1, num_configs // 6))
    return EstimationProblem(
        features=rng.random((num_configs, 3)),
        prior=rng.random((4, num_configs)) + 0.5,
        observed_indices=indices,
        observed_values=rng.random(len(indices)) + 0.5)


@dataclasses.dataclass
class ShardedThroughputResult:
    """What one fleet-scale load run observed.

    ``slo`` is the :class:`~repro.obs.slo.SloTracker` report whose
    ``latency-p99`` objective carries the acceptance number: the p99
    request latency over every completed request in the run.
    """

    shards: int
    clients: int
    requests_per_client: int
    completed: int
    shed: int
    unavailable: int
    wall_seconds: float
    latency: Dict[str, float]
    per_shard_requests: Dict[str, int]
    slo: Dict[str, Any]

    @property
    def total_requests(self) -> int:
        return self.clients * self.requests_per_client

    @property
    def requests_per_second(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.completed / self.wall_seconds

    def to_dict(self) -> Dict[str, Any]:
        payload = dataclasses.asdict(self)
        payload["total_requests"] = self.total_requests
        payload["requests_per_second"] = self.requests_per_second
        return payload


def _sharded_client_cell(shared: Tuple[Dict[str, str], int, int, int, int],
                         cell: Tuple[int, int]) -> Dict[str, Any]:
    """One client's request loop against the fleet, in its own process.

    ``shared`` is (address map as text, requests per client,
    num_configs, distinct problem count, tenant count);
    ``cell`` is (client index, base seed).  Each request routes as one
    of ``tenants`` tenant keys, so traffic spreads over every shard the
    way a real multi-tenant population would.
    """
    from repro.service import ServiceAddress
    from repro.shard import ShardedServiceClient

    addresses_text, requests, num_configs, distinct, tenants = shared
    client_index, base_seed = cell
    addresses = {shard: ServiceAddress.parse(text)
                 for shard, text in addresses_text.items()}
    latencies: List[float] = []
    shed = unavailable = 0
    rng = np.random.default_rng(cell_seed(base_seed, "order", client_index))
    with ShardedServiceClient(addresses, timeout=120.0) as client:
        for _ in range(requests):
            problem = _make_problem(
                cell_seed(base_seed, "problem",
                          int(rng.integers(distinct))),
                num_configs)
            tenant = f"tenant-{int(rng.integers(tenants))}"
            started = time.perf_counter()
            try:
                client.estimate(problem, estimator="offline",
                                deadline_s=60.0, tenant_key=tenant)
            except ServiceOverloaded:
                shed += 1
                continue
            except ShardUnavailable:
                unavailable += 1
                continue
            latencies.append(time.perf_counter() - started)
    return {"client": client_index, "latencies": latencies,
            "shed": shed, "unavailable": unavailable}


def sharded_throughput_experiment(shards: int = 4,
                                  clients: int = 8,
                                  requests_per_client: int = 400,
                                  num_configs: int = 32,
                                  distinct_problems: int = 3,
                                  tenants: int = 24,
                                  max_pending: int = 32,
                                  max_workers: int = 2,
                                  replicas_per_shard: int = 1,
                                  seed: int = 0,
                                  latency_target_s: float = 2.0
                                  ) -> ShardedThroughputResult:
    """Drive a shard fleet with concurrent clients and measure it.

    The defaults issue ``8 x 400 = 3200`` requests across a 4-shard
    fleet, with every completed latency fed to an :class:`SloTracker`
    whose p99 objective (``latency_target_s``) is the acceptance bound
    the bench gate checks.  ``shards=1`` measures a single broker.

    Args:
        shards: Fleet width.
        clients: Concurrent client loops, one process each.
        requests_per_client: ``estimate`` calls each client issues.
        num_configs: Configuration-space size of the synthetic problems.
        distinct_problems: Shared problem pool size (coalescing fodder).
        tenants: Distinct tenant keys the traffic routes as.
        max_pending: Per-shard admission bound.
        max_workers: Per-shard handler threads.
        replicas_per_shard: Registry read replicas per shard.
        seed: Base seed for problems, tenants, and request order.
        latency_target_s: The p99 objective bound in the SLO report.
    """
    from repro.shard import ShardFleet

    with ShardFleet(num_shards=shards, max_pending=max_pending,
                    max_workers=max_workers,
                    replicas_per_shard=replicas_per_shard) as fleet:
        addresses_text = {shard: str(address)
                          for shard, address in fleet.addresses.items()}
        shared = (addresses_text, requests_per_client, num_configs,
                  max(1, distinct_problems), max(1, tenants))
        cells = [(i, seed) for i in range(clients)]
        # The timer counts client start-up, so keep the default start
        # method: fork on Linux before Python 3.14.  On a 2-vCPU VM,
        # spawn and forkserver made wall_seconds 2-2.6x longer.  The
        # forked clients touch none of the fleet's threads or locks.
        started = time.perf_counter()
        with concurrent.futures.ProcessPoolExecutor(
                max_workers=clients) as pool:
            outcomes = list(pool.map(_sharded_client_cell,
                                     itertools.repeat(shared), cells))
        wall = time.perf_counter() - started
        per_shard: Dict[str, int] = {}
        for shard, address in fleet.addresses.items():
            with ServiceClient(address) as probe:
                counters = probe.metrics()["metrics"]["counters"]
            # The broker counts a frame before answering it, so the
            # snapshot already includes this probe's own request.
            per_shard[shard] = int(
                counters.get("service_requests_total", 0)) - 1

    histogram = Histogram("sharded_client_latency_seconds")
    slo = SloTracker(objectives=(
        SloObjective(name="latency-p99", kind="latency",
                     target=latency_target_s, percentile=99.0),),
        capacity=clients * requests_per_client)
    shed = unavailable = 0
    tick = 0
    for outcome in outcomes:
        shed += outcome["shed"]
        unavailable += outcome["unavailable"]
        for value in outcome["latencies"]:
            histogram.observe(value)
            slo.record_latency(value, now=tick)
            tick += 1
    snapshot = histogram.summary()
    return ShardedThroughputResult(
        shards=shards,
        clients=clients,
        requests_per_client=requests_per_client,
        completed=int(snapshot["count"]),
        shed=shed,
        unavailable=unavailable,
        wall_seconds=wall,
        latency={key: snapshot[key]
                 for key in ("count", "mean", "p50", "p90", "p99")},
        per_shard_requests=per_shard,
        slo=slo.report())
