"""Tests for repro.service.client (retries, deadlines, RemoteEstimator)."""

import random
import socket
import threading
import time

import numpy as np
import pytest

from repro.estimators.base import EstimationProblem, InsufficientSamplesError
from repro.service import (
    DeadlineExceeded,
    EstimationService,
    FrameError,
    RemoteEstimator,
    ServerThread,
    ServiceAddress,
    ServiceClient,
    ServiceOverloaded,
)
from repro.service.client import DEADLINE_GRACE_S
from repro.service.frames import (
    decode_binary_frame,
    encode_binary_frame,
    read_binary_frame,
)


def _requests(conn):
    """Yield each request frame a connection sends, until it closes."""
    reader = conn.makefile("rb")
    while True:
        try:
            yield decode_binary_frame(read_binary_frame(reader))
        except ConnectionError:
            return


def _pong(frame):
    return {"v": 1, "id": frame.get("id"), "ok": True,
            "payload": {"pong": True, "echo": None}}


class _FlakyServer:
    """A raw socket server scripted per connection, for retry tests.

    Each element of ``script`` handles one connection: ``"drop"`` closes
    it immediately, ``"overloaded"`` answers every request with a shed,
    ``"overloaded-once"`` sheds the first request then answers normally,
    ``"corrupt-once"`` answers the first request with a frame whose
    version byte is 9 then answers normally, ``"ok"`` answers every
    request with a successful pong.
    """

    def __init__(self, script):
        self.script = list(script)
        self.connections = 0
        self._sock = socket.create_server(("127.0.0.1", 0))
        self.address = ServiceAddress(
            host="127.0.0.1", port=self._sock.getsockname()[1])
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        for behaviour in self.script:
            try:
                conn, _ = self._sock.accept()
            except OSError:  # listener closed during teardown
                return
            self.connections += 1
            if behaviour == "drop":
                conn.close()
                continue
            with conn:
                shed_remaining = 1 if behaviour == "overloaded-once" else 0
                corrupt_remaining = 1 if behaviour == "corrupt-once" else 0
                for frame in _requests(conn):
                    if behaviour == "overloaded" or shed_remaining:
                        shed_remaining = max(0, shed_remaining - 1)
                        reply = {"v": 1, "id": frame.get("id"), "ok": False,
                                 "error": {"type": "overloaded",
                                           "message": "full",
                                           "details": {}}}
                    else:
                        reply = _pong(frame)
                    data = encode_binary_frame(reply)
                    if corrupt_remaining:
                        corrupt_remaining = 0
                        data = data[:1] + b"\x09" + data[2:]
                    conn.sendall(data)

    def close(self):
        self._sock.close()


class TestRetries:
    def test_reconnects_after_dropped_connection(self):
        server = _FlakyServer(["drop", "ok"])
        try:
            client = ServiceClient(server.address, retries=2, backoff=0.01)
            assert client.ping()["pong"] is True
            assert server.connections == 2
            client.close()
        finally:
            server.close()

    def test_transport_retries_exhausted(self):
        server = _FlakyServer(["drop", "drop", "drop"])
        try:
            client = ServiceClient(server.address, retries=2, backoff=0.01)
            with pytest.raises((ConnectionError, OSError)):
                client.ping()
            assert server.connections == 3  # initial + 2 retries
            client.close()
        finally:
            server.close()

    def test_overloaded_surfaces_by_default(self):
        server = _FlakyServer(["overloaded"])
        try:
            client = ServiceClient(server.address, retries=3, backoff=0.01)
            with pytest.raises(ServiceOverloaded):
                client.ping()
            assert server.connections == 1  # no retry without opt-in
            client.close()
        finally:
            server.close()

    def test_retry_overloaded_opt_in(self):
        # The shed arrives on a healthy connection, so the retry reuses
        # it (the client reconnects only on transport failure) — the
        # server must recover per-request, not per-connection.
        server = _FlakyServer(["overloaded-once"])
        try:
            client = ServiceClient(server.address, retries=2, backoff=0.01,
                                   retry_overloaded=True)
            assert client.ping()["pong"] is True
            assert server.connections == 1
            client.close()
        finally:
            server.close()

    def test_invalid_configuration_rejected(self):
        addr = ServiceAddress(host="127.0.0.1", port=1)
        with pytest.raises(ValueError):
            ServiceClient(addr, retries=-1)
        with pytest.raises(ValueError):
            ServiceClient(addr, backoff=-0.1)
        with pytest.raises(ValueError, match="JSON-lines wire was removed"):
            ServiceClient(addr, wire="json")

    def test_corrupt_reply_drops_the_connection(self):
        # The rest of the bad frame must not be read as the start of the
        # next reply: the next call reconnects and succeeds.
        server = _FlakyServer(["corrupt-once", "ok"])
        try:
            client = ServiceClient(server.address, retries=0)
            with pytest.raises(FrameError, match="version 9"):
                client.ping()
            assert client.ping()["pong"] is True
            assert server.connections == 2
            client.close()
        finally:
            server.close()

    def test_unreachable_address_raises_after_retries(self):
        # A closed port: connect() fails fast with ECONNREFUSED.
        sock = socket.create_server(("127.0.0.1", 0))
        port = sock.getsockname()[1]
        sock.close()
        client = ServiceClient(ServiceAddress(host="127.0.0.1", port=port),
                               retries=1, backoff=0.01, timeout=2.0)
        with pytest.raises(OSError):
            client.ping()


class _DeadlineRecordingServer:
    """Scripted like :class:`_FlakyServer`, but records the wire
    ``deadline_s`` of every request it actually reads — the oracle for
    the remaining-budget-on-retry contract."""

    def __init__(self, script):
        self.script = list(script)
        self.deadlines = []
        self._sock = socket.create_server(("127.0.0.1", 0))
        self.address = ServiceAddress(
            host="127.0.0.1", port=self._sock.getsockname()[1])
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        for behaviour in self.script:
            try:
                conn, _ = self._sock.accept()
            except OSError:
                return
            if behaviour == "drop":
                conn.close()
                continue
            with conn:
                for frame in _requests(conn):
                    self.deadlines.append(frame.get("deadline_s"))
                    conn.sendall(encode_binary_frame(_pong(frame)))

    def close(self):
        self._sock.close()


class TestDeadlineBudget:
    """The deadline bounds the call's *total* wall time (satellite of
    the sharding PR): exhausted budgets fail client-side, retries carry
    the remaining budget, and a hung server cannot pin an attempt past
    the budget even under a much larger socket timeout."""

    def test_exhausted_deadline_raises_before_any_attempt(self):
        server = _DeadlineRecordingServer(["ok"])
        try:
            client = ServiceClient(server.address, retries=2)
            with pytest.raises(DeadlineExceeded) as err:
                client.call("ping", {}, deadline_s=0.0)
            assert err.value.details["attempts"] == 0
            assert server.deadlines == []  # nothing reached the wire
            client.close()
        finally:
            server.close()

    def test_first_attempt_carries_the_deadline_verbatim(self):
        server = _DeadlineRecordingServer(["ok"])
        try:
            client = ServiceClient(server.address, retries=0)
            client.call("ping", {}, deadline_s=7.5)
            assert server.deadlines == [7.5]
            client.close()
        finally:
            server.close()

    def test_retry_carries_only_the_remaining_budget(self):
        server = _DeadlineRecordingServer(["drop", "ok"])
        try:
            client = ServiceClient(server.address, retries=2, backoff=0.05)
            client.call("ping", {}, deadline_s=30.0)
            # The dropped first attempt never reached the wire reader;
            # the retry must ask for strictly less than the original.
            assert len(server.deadlines) == 1
            assert 0.0 < server.deadlines[0] < 30.0
            client.close()
        finally:
            server.close()

    def test_hung_server_fails_at_the_budget_not_the_timeout(self):
        # A listener that accepts and then never answers: the classic
        # hang.  The per-attempt socket timeout must be capped at the
        # remaining budget (plus grace), not the 30s transport timeout.
        sock = socket.create_server(("127.0.0.1", 0))
        held = []
        thread = threading.Thread(
            target=lambda: held.append(sock.accept()), daemon=True)
        thread.start()
        try:
            address = ServiceAddress(host="127.0.0.1",
                                     port=sock.getsockname()[1])
            client = ServiceClient(address, timeout=30.0, retries=0)
            started = time.monotonic()
            with pytest.raises(OSError):  # socket.timeout is an OSError
                client.call("ping", {}, deadline_s=0.4)
            elapsed = time.monotonic() - started
            assert elapsed < 0.4 + DEADLINE_GRACE_S + 2.0, elapsed
            client.close()
        finally:
            sock.close()

    def test_overloaded_retries_stop_at_the_deadline(self):
        server = _FlakyServer(["overloaded"])
        try:
            client = ServiceClient(server.address, retries=10_000,
                                   backoff=0.01, retry_overloaded=True)
            started = time.monotonic()
            with pytest.raises((DeadlineExceeded, ServiceOverloaded)):
                client.call("ping", {}, deadline_s=0.3)
            assert time.monotonic() - started < 3.0
            client.close()
        finally:
            server.close()


class TestRemoteEstimator:
    @pytest.fixture()
    def server(self):
        with ServerThread(EstimationService(), max_pending=8,
                          max_workers=2) as thread:
            yield thread

    def test_implements_estimator_protocol(self, server):
        from repro.estimators.base import Estimator
        with ServiceClient(server.bound_address) as client:
            remote = RemoteEstimator(client, estimator="leo")
            assert isinstance(remote, Estimator)
            assert remote.name == "leo"  # keys/reports match in-process

    def test_estimate_delegates(self, server):
        rng = np.random.default_rng(2)
        problem = EstimationProblem(
            features=rng.random((12, 3)),
            prior=rng.random((3, 12)) + 0.5,
            observed_indices=np.array([0, 4, 8]),
            observed_values=rng.random(3) + 0.5)
        with ServiceClient(server.bound_address, timeout=60.0) as client:
            remote = RemoteEstimator(client, estimator="leo")
            from repro.estimators import LEOEstimator
            assert np.array_equal(remote.estimate(problem),
                                  LEOEstimator().estimate(problem))

    def test_insufficient_samples_translated(self, server):
        # Online polynomial regression needs >= its coefficient count;
        # one observation is ill-posed, and the remote error must come
        # back as the same exception the in-process estimator raises.
        rng = np.random.default_rng(3)
        problem = EstimationProblem(
            features=rng.random((12, 3)), prior=None,
            observed_indices=np.array([2]),
            observed_values=np.array([1.0]))
        with ServiceClient(server.bound_address, timeout=60.0) as client:
            remote = RemoteEstimator(client, estimator="online")
            with pytest.raises(InsufficientSamplesError):
                remote.estimate(problem)

    def test_constructor_kwargs_forwarded(self, server):
        rng = np.random.default_rng(4)
        problem = EstimationProblem(
            features=rng.random((20, 3)),
            prior=rng.random((3, 20)) + 0.5,
            observed_indices=np.arange(0, 20, 2),
            observed_values=rng.random(10) + 0.5)
        with ServiceClient(server.bound_address, timeout=60.0) as client:
            remote = RemoteEstimator(client, estimator="knn", k=2)
            from repro.estimators import KNNEstimator
            assert np.array_equal(remote.estimate(problem),
                                  KNNEstimator(k=2).estimate(problem))


class TestSeededBackoff:
    """The full-jitter backoff stream: seeded, clocked, budgeted."""

    def _delays(self, client, attempts, clk, deadline_s=None):
        delays = []
        for attempt in range(attempts):
            before = clk.now()
            if not client._backoff_sleep(attempt, started=0.0,
                                         deadline_s=deadline_s, clk=clk):
                break
            delays.append(clk.now() - before)
        return delays

    def test_same_seed_same_delays(self):
        from repro.clock import VirtualClock
        addr = ServiceAddress(host="127.0.0.1", port=1)
        first = self._delays(ServiceClient(addr, jitter_seed=7),
                             5, VirtualClock())
        second = self._delays(ServiceClient(addr, jitter_seed=7),
                              5, VirtualClock())
        assert first == second
        assert any(d > 0 for d in first)

    def test_different_seeds_decorrelate(self):
        from repro.clock import VirtualClock
        addr = ServiceAddress(host="127.0.0.1", port=1)
        assert (self._delays(ServiceClient(addr, jitter_seed=7),
                             5, VirtualClock())
                != self._delays(ServiceClient(addr, jitter_seed=8),
                                5, VirtualClock()))

    def test_delays_stay_inside_the_jitter_envelope(self):
        from repro.clock import VirtualClock
        addr = ServiceAddress(host="127.0.0.1", port=1)
        client = ServiceClient(addr, jitter_seed=0, backoff=0.05,
                               backoff_cap=0.4)
        delays = self._delays(client, 8, VirtualClock())
        for attempt, delay in enumerate(delays):
            assert 0.0 <= delay <= min(0.4, 0.05 * 2 ** attempt)

    def test_budget_exhaustion_refuses_the_sleep(self):
        from repro.clock import VirtualClock
        addr = ServiceAddress(host="127.0.0.1", port=1)
        client = ServiceClient(addr, jitter_seed=0, backoff=10.0,
                               backoff_cap=10.0)
        clk = VirtualClock()
        clk.advance(5.0)  # 5s into a 5s budget: nothing left
        assert client._backoff_sleep(3, started=0.0, deadline_s=5.0,
                                     clk=clk) is False
        assert clk.now() == 5.0  # no sleep happened

    def test_explicit_clock_beats_ambient(self):
        from repro.clock import VirtualClock, use
        addr = ServiceAddress(host="127.0.0.1", port=1)
        explicit = VirtualClock()
        client = ServiceClient(addr, jitter_seed=1, clock=explicit)
        with use(VirtualClock()) as ambient:
            client._backoff_sleep(4, started=0.0, deadline_s=None)
            assert explicit.sleep_count == 1
            assert ambient.sleep_count == 0
        assert client.clock is explicit

    def test_retries_consume_no_wall_time_on_a_virtual_clock(self):
        from repro.clock import VirtualClock, use
        server = _FlakyServer(["drop", "drop", "ok"])
        try:
            clk = VirtualClock()
            with use(clk):
                client = ServiceClient(server.address, retries=2,
                                       backoff=5.0, backoff_cap=60.0,
                                       jitter_seed=3)
                started = time.monotonic()
                assert client.ping()["pong"] is True
                assert time.monotonic() - started < 3.0
                assert clk.sleep_count == 2  # both backoffs virtual
                assert clk.now() > 0.0
                client.close()
        finally:
            server.close()

    def test_sharded_client_derives_per_shard_seeds(self):
        from repro.faults.injector import stable_seed
        from repro.shard.client import ShardedServiceClient
        addresses = {
            "shard-0": ServiceAddress(host="127.0.0.1", port=1),
            "shard-1": ServiceAddress(host="127.0.0.1", port=2),
        }
        sharded = ShardedServiceClient(addresses, jitter_seed=42)
        a = sharded.client_for("shard-0")
        b = sharded.client_for("shard-1")
        # Streams must be decorrelated across shards but reproducible
        # for (seed, shard): a retry storm never synchronizes.
        expect = random.Random(
            stable_seed("shard-jitter", 42, "shard-0")).uniform(0.0, 1.0)
        assert a._jitter.uniform(0.0, 1.0) == expect
        assert (random.Random(stable_seed("shard-jitter", 42, "shard-0"))
                .random()
                != random.Random(stable_seed("shard-jitter", 42, "shard-1"))
                .random())
        assert b._jitter is not a._jitter
        sharded.close()
