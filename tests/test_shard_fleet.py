"""End-to-end tests for the shard fleet and the sharded client.

The acceptance-shaped properties, at test scale: estimates through the
fleet are bit-identical to local execution on either wire; wire
negotiation degrades to JSON against a pre-binary fleet; a stopped
broker sheds exactly its own tenants with the typed
:class:`ShardUnavailable`; and a model published through one shard
warm-starts the same app on a *different* shard via registry
replication.
"""

import numpy as np
import pytest

from repro.errors import ProtocolError, ShardUnavailable
from repro.estimators.base import EstimationProblem
from repro.estimators.registry import create_estimator
from repro.service import RemoteEstimator
from repro.shard import ShardFleet, ShardedServiceClient


def _problem(seed=0, num_configs=24):
    rng = np.random.default_rng(seed)
    indices = np.arange(0, num_configs, 4)
    return EstimationProblem(
        features=rng.random((num_configs, 3)),
        prior=rng.random((4, num_configs)) + 0.5,
        observed_indices=indices,
        observed_values=rng.random(len(indices)) + 0.5)


def _tenant_on(router, shard_id):
    for index in range(10_000):
        tenant = f"tenant-{index}"
        if router.owner(tenant) == shard_id:
            return tenant
    raise AssertionError(f"no tenant hashes to {shard_id}")


@pytest.fixture(scope="module")
def fleet():
    with ShardFleet(num_shards=3, replicas_per_shard=1,
                    staleness_s=0.0) as running:
        yield running


class TestFleetCalls:
    def test_ping_routes_and_answers(self, fleet):
        with ShardedServiceClient(fleet.addresses) as client:
            for index in range(6):
                reply = client.ping(echo=index,
                                    tenant_key=f"tenant-{index}")
                assert reply["pong"] is True and reply["echo"] == index

    def test_estimate_bit_equal_to_local_on_both_wires(self, fleet):
        problem = _problem(seed=3)
        local = create_estimator("offline").estimate(problem)
        for wire in ("json", "binary"):
            with ShardedServiceClient(fleet.addresses,
                                      wire=wire) as client:
                remote = client.estimate(problem, estimator="offline")
            assert np.array_equal(remote, local), wire

    def test_remote_estimator_drops_onto_the_fleet(self, fleet):
        problem = _problem(seed=5)
        local = create_estimator("offline").estimate(problem)
        with ShardedServiceClient(fleet.addresses) as client:
            remote = RemoteEstimator(client,
                                     estimator="offline").estimate(problem)
        assert np.array_equal(remote, local)

    def test_metrics_covers_every_healthy_shard(self, fleet):
        with ShardedServiceClient(fleet.addresses) as client:
            client.ping(tenant_key="metrics-tenant")
            fleet_metrics = client.metrics()
        assert set(fleet_metrics) == set(fleet.shard_ids)
        total = sum(
            shard["metrics"]["counters"].get("service_requests_total", 0)
            for shard in fleet_metrics.values())
        assert total >= 1

    def test_auto_negotiation_lands_on_binary(self, fleet):
        with ShardedServiceClient(fleet.addresses, wire="auto") as client:
            client.ping(tenant_key="nego")
            shard_id = client.router.route("nego")
            assert client.client_for(shard_id).wire_mode == "binary"


class TestLegacyFleet:
    def test_auto_downgrades_against_a_json_only_fleet(self):
        with ShardFleet(num_shards=2, replicas_per_shard=0,
                        accept_binary=False) as fleet:
            with ShardedServiceClient(fleet.addresses,
                                      wire="auto") as client:
                assert client.ping(tenant_key="t")["pong"] is True
                shard_id = client.router.route("t")
                assert client.client_for(shard_id).wire_mode == "json"

    def test_forced_binary_is_rejected_with_a_typed_error(self):
        with ShardFleet(num_shards=1, replicas_per_shard=0,
                        accept_binary=False) as fleet:
            with ShardedServiceClient(fleet.addresses, wire="binary",
                                      retries=0) as client:
                with pytest.raises((ProtocolError, ShardUnavailable)):
                    client.ping(tenant_key="t")


class TestShardLoss:
    def test_stopped_shard_sheds_only_its_tenants(self):
        with ShardFleet(num_shards=3, replicas_per_shard=0) as fleet:
            with ShardedServiceClient(fleet.addresses, timeout=5.0,
                                      retries=0) as client:
                victim = _tenant_on(client.router, "shard-1")
                survivor = _tenant_on(client.router, "shard-0")
                assert client.ping(tenant_key=victim)["pong"] is True
                fleet.stop_shard("shard-1")
                for _ in range(client.router.failure_threshold):
                    with pytest.raises(ShardUnavailable) as err:
                        client.ping(tenant_key=victim)
                    assert err.value.details["shard"] == "shard-1"
                assert not client.router.is_up("shard-1")
                # The rest of the fleet never noticed.
                assert client.ping(tenant_key=survivor)["pong"] is True
                assert set(client.metrics()) == {"shard-0", "shard-2"}


class TestReplicationThroughTheFleet:
    def test_publish_on_one_shard_warm_starts_another(self):
        with ShardFleet(num_shards=2, replicas_per_shard=1,
                        staleness_s=0.0) as fleet:
            with ShardedServiceClient(fleet.addresses,
                                      timeout=300.0) as client:
                cold = client.call_shard(
                    "shard-0", "calibrate-report",
                    {"app": "kmeans", "space": "cores", "samples": 6,
                     "estimator": "leo"}, deadline_s=240.0)
                warm = client.call_shard(
                    "shard-1", "calibrate-report",
                    {"app": "kmeans", "space": "cores", "samples": 6,
                     "estimator": "leo"}, deadline_s=240.0)
        assert cold["source"] == "calibration" and cold["version"] == 1
        assert warm["source"] == "registry", warm
        assert warm["samples_used"] == 0
        for key in ("rates", "powers"):
            assert (np.asarray(warm[key]).tobytes()
                    == np.asarray(cold[key]).tobytes())

    def test_replication_lag_is_reported(self, fleet):
        with ShardedServiceClient(fleet.addresses) as client:
            client.ping(tenant_key="lag")
        lag = fleet.replication_lag()
        assert set(lag) == {f"{shard}/replica-0"
                            for shard in fleet.shard_ids}
