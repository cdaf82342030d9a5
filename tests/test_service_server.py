"""Tests for repro.service.server (broker, admission, coalescing).

The deterministic ``sleep`` diagnostic op stands in for real fits:
overload and deadline behaviour depend only on how long a handler
occupies a worker, and ``sleep`` makes that exact.
"""

import socket
import threading
import time

import numpy as np
import pytest

from repro.estimators import LEOEstimator, register, unregister
from repro.estimators.base import EstimationProblem, Estimator
from repro.optimize.lp import EnergyMinimizer
from repro.runtime.controller import TradeoffEstimate
from repro.service import (
    DeadlineExceeded,
    EstimationService,
    ModelRegistry,
    RequestRejected,
    ServerThread,
    ServiceClient,
    ServiceOverloaded,
)
from repro.service.frames import decode_binary_frame, read_binary_frame
from repro.service.protocol import Request, problem_to_payload


@pytest.fixture()
def server(tmp_path):
    service = EstimationService(registry=ModelRegistry(tmp_path / "reg"))
    with ServerThread(service, max_pending=2, max_workers=1,
                      default_deadline_s=10.0) as thread:
        yield thread


@pytest.fixture()
def client(server):
    with ServiceClient(server.bound_address, timeout=30.0) as c:
        yield c


def _problem(seed=0, n=16):
    rng = np.random.default_rng(seed)
    return EstimationProblem(
        features=rng.random((n, 3)),
        prior=rng.random((4, n)) + 0.5,
        observed_indices=np.arange(0, n, 3),
        observed_values=rng.random(len(range(0, n, 3))) + 0.5)


class TestBasicOps:
    def test_ping(self, client):
        assert client.ping(echo="hello") == {"pong": True, "echo": "hello"}

    def test_unknown_op_rejected_with_known_list(self, client):
        with pytest.raises(RequestRejected, match="estimate"):
            client.call("frobnicate")

    def test_estimate_matches_in_process(self, client):
        problem = _problem()
        remote = client.estimate(problem, estimator="leo")
        local = LEOEstimator().estimate(problem)
        assert np.array_equal(remote, local)  # bit-exact, not allclose

    def test_estimate_rejects_bad_payload(self, client):
        with pytest.raises(RequestRejected):
            client.call("estimate", {"problem": {"features": [[1.0]]}})

    def test_unknown_estimator_rejected(self, client):
        with pytest.raises(RequestRejected, match="magic"):
            client.estimate(_problem(), estimator="magic")

    def test_optimize(self, client):
        result = client.optimize(
            np.array([1.0, 2.0, 4.0]), np.array([10.0, 15.0, 40.0]),
            idle_power=5.0, work=100.0, deadline=50.0)
        assert result["energy"] > 0
        assert result["max_rate"] == 4.0
        total = sum(s["duration"] for s in result["schedule"])
        assert total <= 50.0 + 1e-9

    def test_optimize_solves_the_lp_once(self, client):
        rates = np.array([1.0, 2.0, 4.0])
        powers = np.array([10.0, 15.0, 40.0])
        minimizer = EnergyMinimizer(rates, powers, 5.0)

        def resolves():
            counters = client.metrics()["metrics"]["counters"]
            return counters.get("lp_resolves_total", 0)

        for work in (37.5, 100.0, 173.0):
            before = resolves()
            result = client.optimize(rates, powers, idle_power=5.0,
                                     work=work, deadline=50.0)
            assert resolves() == before + 1
            assert (result["energy"].hex()
                    == minimizer.min_energy(work, 50.0).hex())

    @pytest.mark.parametrize("idle_power, deadline", [
        (np.nan, 50.0), (np.inf, 50.0), (5.0, np.inf)])
    def test_optimize_rejects_nonfinite_inputs(self, client, idle_power,
                                               deadline):
        with pytest.raises(RequestRejected):
            client.optimize(
                np.array([1.0, 2.0, 4.0]), np.array([10.0, 15.0, 40.0]),
                idle_power=idle_power, work=100.0, deadline=deadline)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_estimate_rejects_nonfinite_observations(self, client, bad):
        rng = np.random.default_rng(3)
        problem = EstimationProblem(
            features=rng.random((16, 3)), prior=rng.random((4, 16)) + 0.5,
            observed_indices=np.arange(16),
            observed_values=rng.random(16) + 0.5)
        payload = problem_to_payload(problem)
        payload["observed_values"][5] = bad
        with pytest.raises(RequestRejected, match="finite"):
            client.call("estimate", {"problem": payload,
                                     "estimator": "online"})

    def test_metrics_op(self, client):
        client.ping()
        snapshot = client.metrics()
        assert snapshot["metrics"]["counters"]["service_requests_total"] >= 1
        assert snapshot["admission"]["max_pending"] == 2

    def test_malformed_frame_gets_protocol_error(self, server):
        # Three bytes, shorter than a frame prefix: the magic byte is
        # checked on arrival, so the reply cannot wait for more.
        sock = server.bound_address.connect(timeout=10.0)
        try:
            sock.sendall(b"{}\n")
            reader = sock.makefile("rb")
            frame = decode_binary_frame(read_binary_frame(reader))
            assert frame["ok"] is False and frame["id"] is None
            assert frame["error"]["type"] == "frame-error"
            assert "magic" in frame["error"]["message"]
            assert reader.read() == b""  # then the broker hangs up
        finally:
            sock.close()

    def test_custom_registered_estimator_served(self, client):
        class Doubler(Estimator):
            name = "doubler"

            def estimate(self, problem):
                curve = np.zeros(problem.num_configs)
                curve[problem.observed_indices] = \
                    2.0 * problem.observed_values
                return curve

        register("doubler-svc", Doubler)
        try:
            problem = _problem()
            remote = client.estimate(problem, estimator="doubler-svc")
            expected = np.zeros(problem.num_configs)
            expected[problem.observed_indices] = \
                2.0 * problem.observed_values
            assert np.array_equal(remote, expected)
        finally:
            assert unregister("doubler-svc")


class TestAdmissionControl:
    def test_bound_k_sheds_request_k_plus_one_within_deadline(self, server):
        """The acceptance criterion: with the queue bound at k, request
        k+1 receives ServiceOverloaded well inside its own deadline
        rather than hanging behind the queue."""
        address = server.bound_address
        # One worker, bound 2: two sleeps fill the budget.
        occupiers, errors = [], []

        def occupy():
            with ServiceClient(address, timeout=30.0) as c:
                try:
                    occupiers.append(c.sleep(1.2, deadline_s=10.0))
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

        threads = [threading.Thread(target=occupy) for _ in range(2)]
        for t in threads:
            t.start()
        _wait_for_admitted(address, 2)

        with ServiceClient(address, timeout=30.0) as c:
            started = time.monotonic()
            with pytest.raises(ServiceOverloaded) as excinfo:
                c.sleep(0.1, deadline_s=5.0)
            elapsed = time.monotonic() - started
        assert elapsed < 5.0, "shed response must beat the deadline"
        assert excinfo.value.details["max_pending"] == 2
        for t in threads:
            t.join(30.0)
        assert not errors, errors
        assert len(occupiers) == 2  # admitted work completed normally

    def test_shed_count_exported(self, server):
        address = server.bound_address
        threads = [threading.Thread(
            target=lambda: _swallow(ServiceOverloaded, address))
            for _ in range(2)]
        for t in threads:
            t.start()
        _wait_for_admitted(address, 2)
        with ServiceClient(address) as c:
            with pytest.raises(ServiceOverloaded):
                c.sleep(0.1, deadline_s=5.0)
            shed = c.metrics()["metrics"]["counters"]["service_shed_total"]
        assert shed >= 1
        for t in threads:
            t.join(30.0)

    def test_inline_ops_never_shed(self, server):
        address = server.bound_address
        threads = [threading.Thread(
            target=lambda: _swallow(Exception, address))
            for _ in range(2)]
        for t in threads:
            t.start()
        _wait_for_admitted(address, 2)
        with ServiceClient(address) as c:
            # The budget is exhausted, yet ping and metrics still answer.
            assert c.ping()["pong"] is True
            assert c.metrics()["admission"]["admitted"] == 2
        for t in threads:
            t.join(30.0)

    def test_budget_released_after_completion(self, server, client):
        client.sleep(0.05, deadline_s=5.0)
        client.sleep(0.05, deadline_s=5.0)
        client.sleep(0.05, deadline_s=5.0)  # would shed if leaked
        assert client.metrics()["admission"]["admitted"] == 0


class TestDeadlines:
    def test_expired_deadline_returns_typed_error(self, client):
        started = time.monotonic()
        with pytest.raises(DeadlineExceeded, match="0.2"):
            client.sleep(2.0, deadline_s=0.2)
        # The response arrives at the deadline, not after the sleep.
        assert time.monotonic() - started < 1.5

    def test_deadline_does_not_cancel_computation(self, server, client):
        with pytest.raises(DeadlineExceeded):
            client.sleep(0.6, deadline_s=0.1)
        deadline = (client.metrics()["metrics"]["counters"]
                    ["service_deadline_exceeded_total"])
        assert deadline == 1
        # The abandoned sleep still occupies the worker until it ends;
        # once it does, the budget drains back to zero.
        _wait_for_admitted(server.bound_address, 0, timeout=5.0)

    def test_connection_kept_after_deadline(self, client):
        with pytest.raises(DeadlineExceeded):
            client.sleep(0.5, deadline_s=0.1)
        # Same connection still serves later calls (stale responses to
        # the abandoned request are discarded by id).
        assert client.ping()["pong"] is True


class TestCoalescing:
    def test_identical_estimates_share_one_fit(self, server):
        address = server.bound_address
        problem = _problem(seed=9)
        results, errors = [], []

        def fit():
            with ServiceClient(address, timeout=60.0) as c:
                try:
                    results.append(c.estimate(problem, estimator="leo",
                                              deadline_s=30.0))
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

        # Hold the single worker so all three fits queue and coalesce.
        holder = threading.Thread(
            target=lambda: _swallow(Exception, address, seconds=0.8))
        holder.start()
        _wait_for_admitted(address, 1)
        # Admission bound is 2: the group must occupy ONE slot, or the
        # second and third fit would be shed.
        threads = [threading.Thread(target=fit) for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60.0)
        holder.join(30.0)
        assert not errors, errors
        assert len(results) == 3
        assert np.array_equal(results[0], results[1])
        assert np.array_equal(results[0], results[2])
        with ServiceClient(address) as c:
            counters = c.metrics()["metrics"]["counters"]
        assert counters.get("service_coalesced_total", 0) == 2

    def test_different_payloads_not_coalesced(self, server):
        address = server.bound_address
        with ServiceClient(address, timeout=60.0) as c:
            a = c.estimate(_problem(seed=1), estimator="leo")
            b = c.estimate(_problem(seed=2), estimator="leo")
            counters = c.metrics()["metrics"]["counters"]
        assert not np.array_equal(a, b)
        assert counters.get("service_coalesced_total", 0) == 0


class TestServiceDirect:
    """EstimationService is usable without any transport."""

    def test_handle_dispatch(self):
        service = EstimationService()
        payload = service.handle(Request(op="ping", payload={"echo": 1}))
        assert payload == {"pong": True, "echo": 1}

    def test_ops_listing(self):
        ops = EstimationService.ops()
        assert {"ping", "estimate", "optimize",
                "calibrate-report", "registry-list", "sleep"} <= set(ops)

    def test_negative_sleep_rejected(self):
        with pytest.raises(RequestRejected):
            EstimationService().handle(
                Request(op="sleep", payload={"seconds": -1}))

    def test_registry_list_without_registry(self):
        payload = EstimationService().handle(Request(op="registry-list"))
        assert payload == {"models": [], "applications": []}

    def test_registry_list_after_publishes(self, tmp_path):
        registry = ModelRegistry(tmp_path / "reg")
        for app in ("kmeans", "kmeans", "swish"):
            registry.publish(app, TradeoffEstimate(
                rates=np.ones(8), powers=np.ones(8), estimator_name="leo"))
        service = EstimationService(registry=registry)
        payload = service.handle(Request(op="registry-list"))
        assert payload == {
            "models": [
                {"app": "kmeans", "num_configs": 8, "estimator": "leo",
                 "versions": 2, "latest_version": 2},
                {"app": "swish", "num_configs": 8, "estimator": "leo",
                 "versions": 1, "latest_version": 1},
            ],
            "applications": ["kmeans", "swish"],
        }


class TestLifecycle:
    def test_shutdown_op_stops_server(self, tmp_path):
        thread = ServerThread(EstimationService())
        address = thread.start()
        with ServiceClient(address) as c:
            assert c.shutdown() == {"stopping": True}
        thread._thread.join(10.0)
        assert thread._thread is None or not thread._thread.is_alive()
        thread.stop()

    def test_unix_socket_transport(self, tmp_path):
        from repro.service import ServiceAddress
        path = str(tmp_path / "svc.sock")
        with ServerThread(EstimationService(),
                          address=ServiceAddress(path=path)) as thread:
            assert str(thread.bound_address) == f"unix:{path}"
            with ServiceClient(thread.bound_address) as c:
                assert c.ping()["pong"] is True

    def test_double_start_rejected(self):
        with ServerThread(EstimationService()) as thread:
            with pytest.raises(RuntimeError):
                thread.start()


def _swallow(exc_type, address, seconds=1.2):
    """Issue a sleep from a throwaway client, ignoring expected errors."""
    try:
        with ServiceClient(address, timeout=30.0) as c:
            c.sleep(seconds, deadline_s=10.0)
    except exc_type:
        pass


def _wait_for_admitted(address, count, timeout=5.0):
    """Poll the inline metrics op until ``admitted`` reaches ``count``."""
    deadline = time.monotonic() + timeout
    with ServiceClient(address, timeout=10.0) as c:
        while time.monotonic() < deadline:
            if c.metrics()["admission"]["admitted"] == count:
                return
            time.sleep(0.02)
    raise AssertionError(
        f"admitted never reached {count} within {timeout}s")
