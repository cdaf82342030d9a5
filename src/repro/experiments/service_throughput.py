"""Throughput characterization of the estimation service.

The service exists so that many tenants can share one estimation
backend; this experiment measures what that sharing costs.  It stands up
an in-process :class:`~repro.service.server.ServerThread`, drives it
with ``clients`` concurrent workloads of identical ``estimate`` requests
(cheap ``offline`` fits by default, so the numbers characterize the
broker rather than the EM engine), and reports latency percentiles plus
the broker's own admission counters — how many requests coalesced into
shared fits and how many were shed.

The client fan-out reuses the experiment harness's
:class:`~repro.experiments.parallel.ParallelRunner`: each cell is one
client's whole request loop, so ``workers=1`` exercises the serial
path and ``workers=k`` genuinely overlaps client traffic.  Unlike the
figure sweeps, the *measurements* here are wall-clock and therefore not
bit-stable across runs; the structural outputs (request counts, shed
and coalesce totals for a given mix) are deterministic.

:func:`sharded_throughput_experiment` is the fleet-scale variant: the
same client loops, but ~100x the request volume against a
:class:`~repro.shard.ShardFleet`, routed per tenant key, with the p99
latency reported through an :class:`~repro.obs.slo.SloTracker`
objective — the fleet's acceptance number.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.estimators.base import EstimationProblem
from repro.experiments.parallel import ParallelRunner, cell_seed
from repro.obs.metrics import Histogram
from repro.obs.slo import SloObjective, SloTracker
from repro.service import (
    EstimationService,
    ServerThread,
    ServiceClient,
    ServiceOverloaded,
    ShardUnavailable,
)

__all__ = [
    "ThroughputResult",
    "ShardedThroughputResult",
    "throughput_experiment",
    "sharded_throughput_experiment",
]


@dataclasses.dataclass
class ThroughputResult:
    """What one load run observed, client-side and broker-side."""

    clients: int
    requests_per_client: int
    completed: int
    shed: int
    wall_seconds: float
    latency: Dict[str, float]  # count/mean/p50/p90/p99 in seconds
    server_counters: Dict[str, float]

    @property
    def requests_per_second(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.completed / self.wall_seconds

    def to_dict(self) -> Dict[str, Any]:
        payload = dataclasses.asdict(self)
        payload["requests_per_second"] = self.requests_per_second
        return payload


def _make_problem(seed: int, num_configs: int) -> EstimationProblem:
    rng = np.random.default_rng(seed)
    indices = np.arange(0, num_configs, max(1, num_configs // 6))
    return EstimationProblem(
        features=rng.random((num_configs, 3)),
        prior=rng.random((4, num_configs)) + 0.5,
        observed_indices=indices,
        observed_values=rng.random(len(indices)) + 0.5)


def _client_cell(shared: Tuple[str, int, int, int],
                 cell: Tuple[int, int]) -> Dict[str, Any]:
    """One client's request loop; module-level so it pickles by name.

    ``shared`` is (address text, requests per client, num_configs,
    distinct problem count); ``cell`` is (client index, base seed).
    Clients draw problems from a small shared pool so concurrent
    identical requests exist for the broker to coalesce.
    """
    from repro.service import ServiceAddress  # cheap; keeps pickling light

    address_text, requests, num_configs, distinct = shared
    client_index, base_seed = cell
    latencies: List[float] = []
    shed = 0
    rng = np.random.default_rng(cell_seed(base_seed, "order", client_index))
    with ServiceClient(ServiceAddress.parse(address_text),
                       timeout=120.0) as client:
        for i in range(requests):
            problem = _make_problem(
                cell_seed(base_seed, "problem",
                          int(rng.integers(distinct))),
                num_configs)
            started = time.perf_counter()
            try:
                client.estimate(problem, estimator="offline",
                                deadline_s=60.0)
            except ServiceOverloaded:
                shed += 1
                continue
            latencies.append(time.perf_counter() - started)
    return {"client": client_index, "latencies": latencies, "shed": shed}


def throughput_experiment(clients: int = 4,
                          requests_per_client: int = 8,
                          num_configs: int = 32,
                          distinct_problems: int = 3,
                          max_pending: int = 8,
                          max_workers: int = 2,
                          seed: int = 0,
                          workers: Optional[int] = None
                          ) -> ThroughputResult:
    """Drive a local service with concurrent clients and measure it.

    Args:
        clients: Concurrent client loops.
        requests_per_client: ``estimate`` calls each client issues.
        num_configs: Configuration-space size of the synthetic problems.
        distinct_problems: Size of the shared problem pool; smaller
            values create more coalescing opportunities.
        max_pending: The server's admission bound.
        max_workers: The server's handler thread count.
        seed: Base seed for problems and per-client request order.
        workers: Client-side parallelism (``None`` reads
            ``REPRO_WORKERS``); the server always runs in this process.
    """
    service = EstimationService()
    with ServerThread(service, max_pending=max_pending,
                      max_workers=max_workers) as thread:
        shared = (str(thread.bound_address), requests_per_client,
                  num_configs, max(1, distinct_problems))
        cells = [(i, seed) for i in range(clients)]
        runner = ParallelRunner(workers=workers)
        started = time.perf_counter()
        outcomes = runner.map(_client_cell, cells, shared=shared)
        wall = time.perf_counter() - started
        with ServiceClient(thread.bound_address) as probe:
            counters = probe.metrics()["metrics"]["counters"]

    histogram = Histogram("service_client_latency_seconds")
    shed = 0
    for outcome in outcomes:
        shed += outcome["shed"]
        for value in outcome["latencies"]:
            histogram.observe(value)
    snapshot = histogram.summary()
    return ThroughputResult(
        clients=clients,
        requests_per_client=requests_per_client,
        completed=int(snapshot["count"]),
        shed=shed,
        wall_seconds=wall,
        latency={key: snapshot[key]
                 for key in ("count", "mean", "p50", "p90", "p99")},
        server_counters={name: value for name, value in counters.items()
                        if name.startswith("service_")})


# ----------------------------------------------------------------------
# The sharded fleet at scale
# ----------------------------------------------------------------------
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
    """One client's request loop against the fleet (pickles by name).

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
                                  latency_target_s: float = 2.0,
                                  workers: Optional[int] = None
                                  ) -> ShardedThroughputResult:
    """Drive a shard fleet at ~100x the single-broker experiment.

    The defaults issue ``8 x 400 = 3200`` requests — 100x the
    single-broker run's ``4 x 8 = 32`` — across a 4-shard fleet, with
    every completed latency fed to an :class:`SloTracker` whose p99
    objective (``latency_target_s``) is the acceptance bound the bench
    gate checks.

    Args:
        shards: Fleet width.
        clients: Concurrent client loops.
        requests_per_client: ``estimate`` calls each client issues.
        num_configs: Configuration-space size of the synthetic problems.
        distinct_problems: Shared problem pool size (coalescing fodder).
        tenants: Distinct tenant keys the traffic routes as.
        max_pending: Per-shard admission bound.
        max_workers: Per-shard handler threads.
        replicas_per_shard: Registry read replicas per shard.
        seed: Base seed for problems, tenants, and request order.
        latency_target_s: The p99 objective bound in the SLO report.
        workers: Client-side parallelism (``None`` reads
            ``REPRO_WORKERS``).
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
        runner = ParallelRunner(workers=workers)
        started = time.perf_counter()
        outcomes = runner.map(_sharded_client_cell, cells, shared=shared)
        wall = time.perf_counter() - started
        per_shard: Dict[str, int] = {}
        for shard, address in fleet.addresses.items():
            with ServiceClient(address) as probe:
                counters = probe.metrics()["metrics"]["counters"]
            per_shard[shard] = int(
                counters.get("service_requests_total", 0))

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
