"""The service client and the :class:`RemoteEstimator` adapter.

:class:`ServiceClient` speaks the wire protocol over one connection,
with automatic reconnect-and-retry (exponential backoff) for transport
failures and — optionally — for load sheds.  The wire encoding is
JSON-lines (protocol v1) by default; ``wire="auto"`` negotiates the
binary protocol v2 per server — the client probes with one binary ping
and falls back to JSON-lines when the server answers in JSON — so a
binary-preferring client against an old broker degrades transparently.
Both encodings round-trip float64 bit-exactly, so the choice is a
transport detail, never a numerics one.  Requests carry their float
data as float64 arrays (:func:`~repro.service.protocol.encode_array`):
one raw block each on the binary wire, nested lists on JSON lines.
What a raw :meth:`ServiceClient.call` returns follows the wire: array
fields of a reply (``rates``, ``powers``, ``estimate``) are float64
arrays on v2 and lists on v1; :meth:`ServiceClient.estimate` returns an
array either way.

:class:`RemoteEstimator` implements the
:class:`~repro.estimators.base.Estimator` protocol over a client, so a
:class:`~repro.runtime.controller.RuntimeController` can be pointed at
a service **without changing a line of controller code**::

    client = ServiceClient(ServiceAddress.parse("127.0.0.1:7421"))
    controller = RuntimeController(machine, space,
                                   estimator=RemoteEstimator(client))

Because curves survive either wire bit-exactly (see
:mod:`repro.service.protocol`) and the estimators are deterministic
given the problem, a remote-backed controller run reproduces the
in-process run to the last bit — ``tests/test_service_e2e.py`` asserts
exactly that.
"""

from __future__ import annotations

import itertools
import logging
import random
import socket
from typing import Any, Dict, Optional

import numpy as np

from repro import clock as clockmod
from repro.clock import Clock
from repro.estimators.base import (
    EstimationProblem,
    Estimator,
    InsufficientSamplesError,
)
from repro.faults.context import get_injector
from repro.obs import current_trace_context, get_tracer
from repro.service.frames import (
    MAGIC,
    FrameError,
    decode_binary_frame,
    encode_binary_frame,
    read_binary_frame,
)
from repro.service.protocol import (
    DeadlineExceeded,
    EstimationRejected,
    ProtocolError,
    Request,
    Response,
    ServiceAddress,
    ServiceOverloaded,
    decode_array,
    decode_frame,
    encode_array,
    encode_frame,
    problem_to_payload,
)

logger = logging.getLogger(__name__)

#: Slack added to the per-attempt socket timeout beyond the remaining
#: deadline budget — enough for the server's own DeadlineExceeded
#: response to travel back, small enough that a hung server cannot pin
#: the caller meaningfully past its deadline.
DEADLINE_GRACE_S = 0.25


class ServiceClient:
    """One connection to an estimation service, with retries.

    Args:
        address: Where the service listens.
        timeout: Socket timeout per read/write (seconds).  Should exceed
            the largest ``deadline_s`` you send, so the server's own
            deadline response arrives before the socket gives up.
        retries: Transport-failure retry budget per call (reconnect and
            resend; safe because every service op is idempotent).
        backoff: Base retry delay in seconds.  Each retry sleeps a
            *full-jitter* delay: uniform in ``[0, min(backoff_cap,
            backoff * 2**attempt))``, which avoids synchronized retry
            storms across tenants while keeping the exponential envelope.
        backoff_cap: Ceiling on any single retry delay (seconds), so a
            deep retry cannot sleep unboundedly.
        retry_overloaded: Also retry :class:`ServiceOverloaded`
            responses (with the same backoff schedule) instead of
            surfacing them — the polite-tenant mode.
        default_deadline_s: ``deadline_s`` attached to calls that do not
            specify one; ``None`` defers to the server default.  A
            call's deadline also bounds its *total* retry time: when the
            remaining budget cannot cover the next sleep, the pending
            failure is surfaced immediately instead of retrying past
            the point where the caller has stopped waiting.
        jitter_seed: Seed for the jitter stream (deterministic tests);
            ``None`` uses OS entropy.
        clock: The :class:`~repro.clock.Clock` timing the deadline
            budget and the backoff sleeps; ``None`` reads the ambient
            clock per call, so a client created outside a
            ``clock.use(...)`` block still goes virtual inside one.
        wire: Wire encoding.  ``"json"`` (default) is protocol v1,
            compatible with every broker ever shipped.  ``"auto"``
            probes each new server with one binary ping and downgrades
            to JSON-lines when the answer comes back as JSON (the
            binary frame's trailing newline guarantees a v1 broker
            *answers* the probe instead of waiting for a line that
            never ends); the result is cached across reconnects and
            readable from :attr:`wire_mode`.  ``"binary"`` forces
            protocol v2 without probing.  The sharded client defaults
            to ``"auto"`` — the fleet is always binary-capable.
    """

    def __init__(self, address: ServiceAddress, timeout: float = 60.0,
                 retries: int = 2, backoff: float = 0.05,
                 backoff_cap: float = 2.0,
                 retry_overloaded: bool = False,
                 default_deadline_s: Optional[float] = None,
                 jitter_seed: Optional[int] = None,
                 clock: Optional[Clock] = None,
                 wire: str = "json") -> None:
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if backoff < 0:
            raise ValueError(f"backoff must be >= 0, got {backoff}")
        if backoff_cap <= 0:
            raise ValueError(f"backoff_cap must be positive, "
                             f"got {backoff_cap}")
        if wire not in ("auto", "json", "binary"):
            raise ValueError(f"wire must be 'auto', 'json', or 'binary', "
                             f"got {wire!r}")
        self.address = address
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.backoff_cap = backoff_cap
        self.retry_overloaded = retry_overloaded
        self.default_deadline_s = default_deadline_s
        self.wire = wire
        self._clock = clock
        self._jitter = random.Random(jitter_seed)
        self._ids = itertools.count(1)
        self._sock: Optional[socket.socket] = None
        self._file = None
        self._negotiated: Optional[str] = None if wire == "auto" else wire

    @property
    def clock(self) -> Clock:
        """The clock timing this client (explicit beats ambient)."""
        return clockmod.resolve(self._clock)

    # -- connection management ------------------------------------------
    @property
    def wire_mode(self) -> Optional[str]:
        """The encoding in use: ``"json"``, ``"binary"``, or ``None``
        before the first ``auto`` connection negotiates."""
        return self._negotiated

    def _ensure_connected(self) -> None:
        if self._sock is None:
            self._sock = self.address.connect(timeout=self.timeout)
            self._file = self._sock.makefile("rb")
            if self._negotiated is None:
                self._negotiate()

    def _negotiate(self) -> None:
        """One binary ping probe; a JSON answer downgrades to v1.

        A protocol-v2 broker answers the probe in binary — done.  A
        pre-binary broker answers with a JSON-lines protocol error (or
        hangs up on the unparseable bytes); either way the client caches
        ``"json"`` and reopens a clean connection, so existing servers
        keep working without a flag anywhere.
        """
        request = Request(op="ping", payload={"echo": "wire-probe"},
                          request_id=next(self._ids))
        try:
            self._sock.sendall(encode_binary_frame(request.to_wire()))
            first = self._file.read(1)
            if first == MAGIC:
                # Drain (and validate) the binary pong.
                decode_binary_frame(read_binary_frame(self._file,
                                                      first=first))
                self._negotiated = "binary"
                return
        except (ConnectionError, OSError, FrameError):
            pass
        self._negotiated = "json"
        logger.debug("wire negotiation fell back to JSON-lines",
                     extra={"fields": {"address": str(self.address)}})
        self.close()
        self._sock = self.address.connect(timeout=self.timeout)
        self._file = self._sock.makefile("rb")

    def close(self) -> None:
        """Drop the connection (the next call reconnects)."""
        if self._file is not None:
            try:
                self._file.close()
            except OSError:
                pass
            self._file = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- the core call --------------------------------------------------
    def call(self, op: str, payload: Optional[Dict[str, Any]] = None,
             deadline_s: Optional[float] = None) -> Dict[str, Any]:
        """Invoke one operation; returns the response payload.

        Raises the rehydrated typed :class:`~repro.service.protocol.
        ServiceError` on a failure response, after exhausting any
        applicable retries.  The call's deadline bounds its *total*
        wall time, retries included: each retry sends the server the
        *remaining* budget (not a fresh full deadline), each attempt's
        socket timeout is capped at that budget plus a small grace, and
        a backoff sleep that would not fit in the budget surfaces the
        pending failure instead of retrying into a window the caller
        has already abandoned.
        """
        if deadline_s is None:
            deadline_s = self.default_deadline_s
        clk = self.clock
        started = clk.now()
        attempt = 0
        tracer = get_tracer()
        # The ``client.call`` span covers the whole retry loop, so its
        # duration is what the caller actually waited; each attempt's
        # wire frame carries the ambient trace context (captured inside
        # the span, so server-side spans parent under it).
        with tracer.span("client.call", op=op, address=str(self.address)):
            while True:
                remaining: Optional[float] = None
                if deadline_s is not None:
                    remaining = deadline_s - (clk.now() - started)
                    if remaining <= 0:
                        raise DeadlineExceeded(
                            f"deadline of {deadline_s:.3f}s exhausted "
                            f"after {attempt} attempt(s) for op {op!r}",
                            details={"deadline_s": deadline_s, "op": op,
                                     "attempts": attempt})
                # The first attempt carries the caller's deadline
                # verbatim; retries carry only what is left of it.
                wire_deadline = deadline_s if attempt == 0 else remaining
                try:
                    return self._call_once(op, payload or {},
                                           wire_deadline, remaining)
                except (ConnectionError, socket.timeout, OSError) as exc:
                    self.close()
                    if (attempt >= self.retries
                            or not self._backoff_sleep(attempt, started,
                                                       deadline_s, clk)):
                        raise
                    logger.debug("retrying after transport failure",
                                 extra={"fields": {
                                     "op": op, "error": str(exc),
                                     "attempt": attempt,
                                     "trace_id": tracer.trace_id}})
                except ServiceOverloaded:
                    if (not self.retry_overloaded or attempt >= self.retries
                            or not self._backoff_sleep(attempt, started,
                                                       deadline_s, clk)):
                        raise
                    logger.debug("retrying after load shed",
                                 extra={"fields": {
                                     "op": op, "attempt": attempt,
                                     "trace_id": tracer.trace_id}})
                attempt += 1

    def _backoff_sleep(self, attempt: int, started: float,
                       deadline_s: Optional[float],
                       clk: Optional[Clock] = None) -> bool:
        """Sleep the full-jitter backoff for ``attempt``; False = give up.

        The delay is uniform in ``[0, min(backoff_cap, backoff *
        2**attempt))`` (AWS-style full jitter).  With a deadline, the
        sleep — and the retry after it — must fit in what is left of
        the deadline budget; when it cannot, no sleep happens and the
        caller surfaces the pending failure.
        """
        if clk is None:
            clk = self.clock
        if not self.backoff:
            delay = 0.0
        else:
            envelope = min(self.backoff_cap, self.backoff * (2 ** attempt))
            delay = self._jitter.uniform(0.0, envelope)
        if deadline_s is not None:
            remaining = deadline_s - (clk.now() - started)
            if remaining <= delay:
                return False
        if delay > 0:
            clk.sleep(delay)
        return True

    def _call_once(self, op: str, payload: Dict[str, Any],
                   deadline_s: Optional[float],
                   budget_s: Optional[float] = None) -> Dict[str, Any]:
        # Fault-injection hook: transport and protocol failures surface
        # exactly where the real ones would, upstream of the retry loop.
        for spec in get_injector().fire("service.call"):
            if spec.kind == "connection-drop":
                raise ConnectionError("injected connection drop")
            if spec.kind == "service-timeout":
                raise socket.timeout("injected service timeout")
            if spec.kind == "corrupt-response":
                raise ProtocolError("injected corrupt response")
        self._ensure_connected()
        # A hung server must not pin this attempt past the caller's
        # remaining deadline budget: the socket gives up at the budget
        # (plus the grace that lets the server's own deadline response
        # arrive), even when ``timeout`` is much larger.
        if budget_s is not None:
            self._sock.settimeout(min(self.timeout,
                                      budget_s + DEADLINE_GRACE_S))
        else:
            self._sock.settimeout(self.timeout)
        ctx = current_trace_context()
        request = Request(op=op, payload=payload,
                          request_id=next(self._ids),
                          deadline_s=deadline_s,
                          trace=ctx.to_wire() if ctx is not None else None)
        wire = request.to_wire()
        self._sock.sendall(encode_binary_frame(wire)
                           if self._negotiated == "binary"
                           else encode_frame(wire))
        # Responses on a pipelined connection may arrive out of order;
        # drain frames until ours shows up.  (This client issues calls
        # serially, so "out of order" only means responses to requests
        # an earlier timed-out attempt abandoned.)
        while True:
            response = Response.from_wire(self._read_frame())
            if response.request_id == request.request_id:
                return response.result()
            if response.request_id is None:
                # An unkeyed protocol-error response can only refer to
                # the frame we just sent.
                response.result()
                raise ProtocolError("server rejected the frame")
            logger.debug("discarding stale response",
                         extra={"fields": {"id": response.request_id}})

    def _read_frame(self) -> Dict[str, Any]:
        """Read one response frame, sniffing its encoding by first byte."""
        first = self._file.read(1)
        if not first:
            raise ConnectionError("service closed the connection")
        if first == MAGIC:
            return decode_binary_frame(
                read_binary_frame(self._file, first=first))
        return decode_frame(first + self._file.readline())

    # -- op conveniences ------------------------------------------------
    def ping(self, echo: Any = None) -> Dict[str, Any]:
        return self.call("ping", {"echo": echo})

    def estimate(self, problem: EstimationProblem,
                 estimator: Optional[str] = None,
                 deadline_s: Optional[float] = None,
                 **kwargs: Any) -> np.ndarray:
        """Run a remote fit; returns the estimated curve."""
        payload: Dict[str, Any] = {"problem": problem_to_payload(problem)}
        if estimator is not None:
            payload["estimator"] = estimator
        if kwargs:
            payload["kwargs"] = kwargs
        result = self.call("estimate", payload, deadline_s=deadline_s)
        return decode_array(result["estimate"])

    def optimize(self, rates: np.ndarray, powers: np.ndarray,
                 idle_power: float, work: float, deadline: float,
                 mode: str = "deadline-energy") -> Dict[str, Any]:
        """Solve the Eq. (1) LP remotely; returns schedule and energy."""
        return self.call("optimize", {
            "rates": encode_array(rates), "powers": encode_array(powers),
            "idle_power": idle_power, "work": work, "deadline": deadline,
            "mode": mode})

    def calibrate_report(self, app: str, **options: Any) -> Dict[str, Any]:
        """Calibrate a suite application (or fetch it from the registry)."""
        return self.call("calibrate-report", dict(options, app=app))

    def registry_list(self) -> Dict[str, Any]:
        return self.call("registry-list")

    def metrics(self) -> Dict[str, Any]:
        return self.call("metrics")

    def sleep(self, seconds: float,
              deadline_s: Optional[float] = None) -> Dict[str, Any]:
        return self.call("sleep", {"seconds": seconds},
                         deadline_s=deadline_s)

    def shutdown(self) -> Dict[str, Any]:
        """Ask the server to stop (after answering)."""
        result = self.call("shutdown")
        self.close()
        return result


class RemoteEstimator(Estimator):
    """An :class:`Estimator` whose fits run on an estimation service.

    Drops into any estimator slot — :class:`~repro.runtime.controller.
    RuntimeController`, the experiment harness — with the computation
    happening server-side, where coalescing shares identical concurrent
    fits across tenants.

    Args:
        client: The connection to use (owned by the caller).
        estimator: Server-side estimator name.  Also becomes this
            adapter's :attr:`name`, so persistence keys and reports
            match the in-process equivalent.
        deadline_s: Per-fit deadline; ``None`` uses the client default.
    """

    def __init__(self, client: ServiceClient, estimator: str = "leo",
                 deadline_s: Optional[float] = None, **kwargs: Any) -> None:
        self.client = client
        self.remote_name = estimator
        self.name = estimator
        self.deadline_s = deadline_s
        self.kwargs = kwargs

    def estimate(self, problem: EstimationProblem) -> np.ndarray:
        try:
            return self.client.estimate(problem,
                                        estimator=self.remote_name,
                                        deadline_s=self.deadline_s,
                                        **self.kwargs)
        except EstimationRejected as exc:
            # The controller's ill-posed-fit handling (keep the previous
            # estimate, try a different approach) must work unchanged
            # against a remote backend.
            raise InsufficientSamplesError(str(exc)) from exc
