"""The estimation service: request broker + admission control.

Three layers, separable for testing:

* :class:`EstimationService` — the synchronous operation handlers
  (``estimate``, ``optimize``, ``calibrate-report``, ...), callable
  directly without any networking.
* :class:`ServiceServer` — the asyncio broker: reads binary frames
  (:mod:`repro.service.frames`), **admits** requests against a bounded
  budget (shedding the excess with a typed
  :class:`~repro.service.protocol.ServiceOverloaded` instead of
  queueing unboundedly), **coalesces**
  identical concurrent fits into one execution (tenants asking for the
  same curve share one EM run — the fit itself already batches its
  E-step across applications, so one execution serves the whole prior
  pool), and enforces **per-request deadlines** (an expired waiter gets
  :class:`~repro.service.protocol.DeadlineExceeded`; the underlying
  computation is never cancelled, because coalesced followers may still
  be waiting on it).
* :class:`ServerThread` — the broker on a background thread, for tests
  and in-process embedding.

Handlers run on a thread pool so the event loop stays free to shed and
answer inline operations (``ping``, ``metrics``, ``shutdown``) even
while every worker is busy — that is what makes the overload response
arrive *within* the shedded request's deadline rather than after it.

Observability: the loop thread owns the shared
:class:`~repro.obs.MetricsRegistry` (``service_requests_total``,
``service_shed_total``, ``service_coalesced_total``,
``service_deadline_exceeded_total``, ``service_pending`` gauge,
``service_request_seconds`` histogram), so the asserted counters are
updated single-threaded.  Per-request spans use a *per-request*
:class:`~repro.obs.Tracer` recorded entirely on the worker thread
running the handler — the repo tracer keeps one span stack and must not
be shared across concurrent requests — and are collected into
:attr:`ServiceServer.request_spans` for export.
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
import logging
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Dict, List, Optional

from repro.clock import get_clock
from repro.estimators.base import InsufficientSamplesError
from repro.estimators.registry import create_estimator
from repro.experiments.harness import (
    accuracy_scores,
    default_context,
    estimate_curves,
    random_indices,
    sample_target,
)
from repro.obs import (
    MetricsRegistry,
    Observability,
    Span,
    TraceContext,
    Tracer,
    shard_span_base,
    use,
)
from repro.optimize.lp import EnergyMinimizer
from repro.runtime.controller import TradeoffEstimate
from repro.service.protocol import (
    DeadlineExceeded,
    EstimationRejected,
    ProtocolError,
    RemoteError,
    Request,
    RequestRejected,
    Response,
    ServiceAddress,
    ServiceError,
    ServiceOverloaded,
    encode_array,
    fingerprint,
    problem_from_payload,
)
from repro.service.frames import (
    MAGIC,
    MAX_FRAME_BYTES,
    PREFIX_SIZE,
    FrameError,
    decode_binary_frame,
    encode_binary_frame,
    parse_prefix,
)
from repro.service.registry import ModelRegistry

logger = logging.getLogger(__name__)

#: Operations whose result is a pure function of (op, payload): identical
#: concurrent requests share one execution.
COALESCABLE_OPS = frozenset({"estimate", "calibrate-report"})

#: Operations answered on the event loop itself — never queued, never
#: shed, so a client can always probe a saturated server.
INLINE_OPS = frozenset({"ping", "metrics", "shutdown"})

#: Upper bound on the ``sleep`` diagnostic, so a typo cannot pin a
#: worker for an hour.
MAX_SLEEP_SECONDS = 60.0


class EstimationService:
    """The operation handlers, independent of any transport.

    Args:
        registry: Optional :class:`ModelRegistry` backing warm starts
            and ``calibrate-report`` publishing; ``None`` disables
            persistence (every calibration is cold).
        default_estimator: Estimator name used when a request omits one.
    """

    def __init__(self, registry: Optional[ModelRegistry] = None,
                 default_estimator: str = "leo") -> None:
        self.registry = registry
        self.default_estimator = default_estimator

    def handle(self, request: Request) -> Dict[str, Any]:
        """Dispatch one request to its handler; returns the payload."""
        handler = getattr(self, "_op_" + request.op.replace("-", "_"), None)
        if handler is None or not request.op.replace("-", "_").isidentifier():
            raise RequestRejected(
                f"unknown op {request.op!r}; known: {sorted(self.ops())}")
        return handler(request.payload)

    @classmethod
    def ops(cls) -> List[str]:
        """Operation names this service answers (transport ops excluded)."""
        return sorted(name[len("_op_"):].replace("_", "-")
                      for name in dir(cls) if name.startswith("_op_"))

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def _op_ping(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        return {"pong": True, "echo": payload.get("echo")}

    def _op_sleep(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Diagnostic: occupy one worker for a bounded interval.

        Exists to make overload and deadline behaviour *deterministic*
        in tests and load drills — real fits take data-dependent time.
        """
        seconds = float(payload.get("seconds", 0.0))
        if seconds < 0:
            raise RequestRejected(f"sleep seconds must be >= 0, got {seconds}")
        seconds = min(seconds, MAX_SLEEP_SECONDS)
        get_clock().sleep(seconds)
        return {"slept": seconds}

    def _op_estimate(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Run one estimator on a submitted problem.

        The curve travels as a float64 array, bit-exact on the wire
        (see :mod:`repro.service.frames`), so a remote caller
        reproduces an in-process fit to the last bit.
        """
        name = payload.get("estimator", self.default_estimator)
        kwargs = payload.get("kwargs", {})
        if not isinstance(kwargs, dict):
            raise RequestRejected("'kwargs' must be a JSON object")
        problem = problem_from_payload(payload.get("problem", {}))
        estimator = create_estimator(name, **kwargs)
        curve = estimator.estimate(problem)
        return {"estimator": estimator.name,
                "estimate": encode_array(curve),
                "num_configs": problem.num_configs}

    def _op_optimize(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Solve the Eq. (1) LP on submitted tradeoff curves."""
        try:
            rates = payload["rates"]
            powers = payload["powers"]
            idle_power = float(payload["idle_power"])
            work = float(payload["work"])
            deadline = float(payload["deadline"])
        except KeyError as exc:
            raise RequestRejected(f"optimize payload lacks {exc}") from exc
        mode = payload.get("mode", "deadline-energy")
        minimizer = EnergyMinimizer(rates, powers, idle_power, mode=mode)
        schedule = minimizer.solve(work, deadline)
        return {
            "schedule": [{"config_index": slot.config_index,
                          "duration": slot.duration} for slot in schedule],
            "energy": minimizer.schedule_energy(schedule, deadline),
            "max_rate": minimizer.max_rate,
        }

    def _op_calibrate_report(self, payload: Dict[str, Any]
                             ) -> Dict[str, Any]:
        """Calibrate one suite application, or serve it from the registry.

        Warm path: a registry hit returns the published curves with
        ``samples_used: 0`` — the returning tenant pays no sampling at
        all (the paper's Section 6.7 amortization, across processes and
        across tenants).  ``force: true`` bypasses the registry; a cold
        calibration publishes its result for the next tenant.
        """
        app = payload.get("app")
        if not isinstance(app, str) or not app:
            raise RequestRejected("calibrate-report needs an 'app' name")
        space_kind = payload.get("space", "paper")
        seed = int(payload.get("seed", 0))
        estimator = payload.get("estimator", self.default_estimator)
        samples = int(payload.get("samples", 20))
        if samples < 1:
            raise RequestRejected(f"samples must be >= 1, got {samples}")
        force = bool(payload.get("force", False))

        ctx = default_context(space_kind, seed)
        n = len(ctx.space)
        if self.registry is not None and not force:
            warm = self.registry.warm_estimate(app, n, estimator)
            if warm is not None:
                return {"source": "registry", "samples_used": 0,
                        "estimator": estimator, "num_configs": n,
                        "rates": encode_array(warm.rates),
                        "powers": encode_array(warm.powers)}

        profile = ctx.profile(app)  # KeyError -> bad-request at the broker
        view = ctx.dataset.leave_one_out(app)
        indices = random_indices(n, min(samples, n), seed=seed + 7919)
        rate_obs, power_obs = sample_target(ctx, profile, indices)
        curve = estimate_curves(ctx, view, indices, rate_obs, power_obs,
                                estimator)
        if not curve.feasible:
            raise EstimationRejected(
                f"estimator {estimator!r} is ill-posed for "
                f"{indices.size} samples of {app!r}")
        perf_acc, power_acc = accuracy_scores(curve, view)
        result: Dict[str, Any] = {
            "source": "calibration", "samples_used": int(indices.size),
            "estimator": estimator, "num_configs": n,
            "rates": encode_array(curve.rates),
            "powers": encode_array(curve.powers),
            "accuracy_performance": perf_acc,
            "accuracy_power": power_acc,
        }
        if self.registry is not None:
            record = self.registry.publish(
                app,
                TradeoffEstimate(rates=curve.rates, powers=curve.powers,
                                 estimator_name=estimator),
                metadata={"space": space_kind, "seed": seed,
                          "samples": int(indices.size),
                          "accuracy_performance": perf_acc,
                          "accuracy_power": power_acc})
            result["version"] = record.version
        return result

    def _op_registry_list(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        if self.registry is None:
            return {"models": [], "applications": []}
        models = self.registry.known_models()
        return {"models": models,
                "applications": sorted({row["app"] for row in models})}


def map_exception(exc: BaseException) -> ServiceError:
    """Translate a handler failure into its wire-level typed error."""
    if isinstance(exc, ServiceError):
        return exc
    if isinstance(exc, InsufficientSamplesError):
        return EstimationRejected(str(exc))
    if isinstance(exc, (ValueError, KeyError, TypeError)):
        return RequestRejected(f"{type(exc).__name__}: {exc}")
    return RemoteError(f"{type(exc).__name__}: {exc}")


class ServiceServer:
    """The asyncio broker fronting an :class:`EstimationService`.

    Args:
        service: The operation handlers.
        address: Where to listen; TCP port 0 binds an ephemeral port
            (read the result off :attr:`bound_address`).
        max_pending: Admission budget — in-flight plus queued requests.
            Request ``max_pending + 1`` is shed with
            :class:`ServiceOverloaded`, immediately, from the loop.
        default_deadline_s: Deadline for requests that do not carry one.
        max_workers: Handler thread-pool width (default: CPU count,
            capped at 8).
        observability: Metrics registry and tracer wiring.  ``None``
            creates a private recording :class:`MetricsRegistry` (the
            ``metrics`` op should always have something to report) and
            no tracer.  A recording tracer enables per-request spans.

    Every request and reply is one binary frame.  A connection whose
    bytes stop being frames — a first byte other than the frame magic,
    a mangled prefix, a stream cut mid-frame — gets one typed
    ``frame-error`` reply and is closed.
    """

    def __init__(self, service: EstimationService, address: ServiceAddress,
                 max_pending: int = 8, default_deadline_s: float = 30.0,
                 max_workers: Optional[int] = None,
                 observability: Optional[Observability] = None) -> None:
        if max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        if default_deadline_s <= 0:
            raise ValueError(f"default_deadline_s must be positive, "
                             f"got {default_deadline_s}")
        self.service = service
        self.address = address
        self.max_pending = max_pending
        self.default_deadline_s = default_deadline_s
        self.max_workers = (max_workers if max_workers is not None
                            else min(os.cpu_count() or 1, 8))
        if observability is None:
            observability = Observability(metrics=MetricsRegistry())
        self.observability = observability
        self.metrics = observability.metrics
        self._request_spans: List[Span] = []
        # Per-request shard counter: each traced request numbers its
        # spans from a distinct shard_span_base block, so concurrent
        # handler threads never collide.  itertools.count is atomic
        # under the GIL, so worker threads may draw from it directly.
        self._request_seq = itertools.count(1)
        self._admitted = 0
        self._inflight: Dict[str, "asyncio.Future"] = {}
        self._bound: Optional[ServiceAddress] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._connections: set = set()

    # -- introspection --------------------------------------------------
    @property
    def bound_address(self) -> Optional[ServiceAddress]:
        """The actual listening address (resolves ephemeral ports)."""
        return self._bound

    @property
    def request_spans(self) -> List[Span]:
        """Per-request span trees collected so far (export with
        :func:`repro.obs.write_trace`)."""
        return list(self._request_spans)

    def request_stop(self) -> None:
        """Ask the serve loop to wind down (loop-thread only; from other
        threads go through ``loop.call_soon_threadsafe``)."""
        if self._stop is not None:
            self._stop.set()

    # -- lifecycle ------------------------------------------------------
    async def serve(self, ready: Optional[Callable[[ServiceAddress], None]]
                    = None) -> None:
        """Listen and broker requests until :meth:`request_stop`."""
        self._loop = asyncio.get_event_loop()
        self._stop = asyncio.Event()
        self._executor = ThreadPoolExecutor(
            max_workers=self.max_workers,
            thread_name_prefix="repro-service")
        # Every read is readexactly, so ``limit`` bounds no read; it
        # sets the buffered size (twice the limit) at which the reader
        # pauses the socket, and a paper-space estimate frame is far
        # larger than the default 64 KiB.
        if self.address.path is not None:
            server = await asyncio.start_unix_server(
                self._on_connection, path=self.address.path,
                limit=MAX_FRAME_BYTES)
            self._bound = self.address
        else:
            server = await asyncio.start_server(
                self._on_connection, host=self.address.host,
                port=self.address.port, limit=MAX_FRAME_BYTES)
            sockname = server.sockets[0].getsockname()
            self._bound = ServiceAddress(host=self.address.host,
                                         port=int(sockname[1]))
        logger.info("service listening",
                    extra={"fields": {"address": str(self._bound),
                                      "max_pending": self.max_pending,
                                      "workers": self.max_workers}})
        try:
            if ready is not None:
                ready(self._bound)
            await self._stop.wait()
        finally:
            server.close()
            await server.wait_closed()
            for writer in list(self._connections):
                with contextlib.suppress(Exception):
                    writer.close()
            self._executor.shutdown(wait=False, cancel_futures=True)
            if self.address.path is not None:
                with contextlib.suppress(OSError):
                    os.unlink(self.address.path)

    async def _on_connection(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        self._connections.add(writer)
        pending: set = set()
        try:
            while not self._stop.is_set():
                try:
                    first = await reader.read(1)
                    if not first:
                        break
                    frame = await _read_frame(reader, first)
                except FrameError as exc:
                    # A non-frame byte or a mangled prefix poisons the
                    # whole byte stream: answer typed, then hang up
                    # rather than guess at resynchronisation.
                    self.metrics.inc("service_protocol_errors_total")
                    await self._send(writer, Response.failure(None, exc))
                    break
                except (ConnectionError, OSError):
                    break
                # One task per frame: pipelined requests on a single
                # connection proceed concurrently, so a slow fit does
                # not head-of-line-block a later ping.
                task = asyncio.ensure_future(
                    self._handle_frame(frame, writer))
                pending.add(task)
                task.add_done_callback(pending.discard)
        finally:
            self._connections.discard(writer)
            with contextlib.suppress(Exception):
                writer.close()

    # -- request handling -----------------------------------------------
    async def _handle_frame(self, frame: bytes,
                            writer: asyncio.StreamWriter) -> None:
        received = self._loop.time()
        try:
            request = Request.from_wire(decode_binary_frame(frame))
        except ProtocolError as exc:
            self.metrics.inc("service_protocol_errors_total")
            await self._send(writer, Response.failure(None, exc))
            return
        self.metrics.inc("service_requests_total")
        try:
            await self._handle_request(request, writer, received)
        except Exception as exc:  # last-resort: never drop a response
            logger.exception("unhandled broker failure")
            await self._send(writer,
                             Response.failure(request.request_id,
                                              map_exception(exc)))

    async def _handle_request(self, request: Request,
                              writer: asyncio.StreamWriter,
                              received: float) -> None:
        ctx = (TraceContext.from_wire(request.trace)
               if request.trace is not None else None)
        trace_id = ctx.trace_id if ctx is not None else None
        if request.op == "shutdown":
            await self._send(writer, Response.success(request.request_id,
                                                      {"stopping": True}))
            # Let the response drain before tearing the transport down.
            self._loop.call_later(0.05, self._stop.set)
            return
        if request.op in INLINE_OPS:
            try:
                payload = self._inline(request)
                await self._send(writer, Response.success(
                    request.request_id, payload))
            except Exception as exc:
                await self._send(writer, Response.failure(
                    request.request_id, map_exception(exc),
                    trace_id=trace_id))
            return

        # Coalescing first: a request identical to an in-flight one adds
        # no work, so it attaches to the running task without consuming
        # admission budget.
        key = (fingerprint(request.op, request.payload)
               if request.op in COALESCABLE_OPS else None)
        task = self._inflight.get(key) if key is not None else None
        if task is not None:
            self.metrics.inc("service_coalesced_total")
        else:
            # Admission control: the budget covers queued *and* running
            # work, so with bound k the (k+1)-th concurrent request is
            # shed here, synchronously, without touching the thread pool.
            if self._admitted >= self.max_pending:
                self.metrics.inc("service_shed_total")
                self.observability.slo.record_event("service-shed")
                exc = ServiceOverloaded(
                    f"{self._admitted} requests already admitted "
                    f"(bound {self.max_pending}); retry later",
                    details={"max_pending": self.max_pending})
                await self._send(writer,
                                 Response.failure(request.request_id, exc,
                                                  trace_id=trace_id))
                return
            self._admitted += 1
            self.metrics.set_gauge("service_pending", self._admitted)
            task = self._spawn_task(request, key)
            task.add_done_callback(lambda _t: self._release())

        deadline = (request.deadline_s if request.deadline_s is not None
                    else self.default_deadline_s)
        try:
            remaining = deadline - (self._loop.time() - received)
            if remaining <= 0:
                raise asyncio.TimeoutError
            # shield(): a deadline expiry abandons *this waiter*, never
            # the computation — coalesced followers may still need it,
            # and a half-cancelled EM fit helps nobody.
            payload = await asyncio.wait_for(asyncio.shield(task),
                                             timeout=remaining)
        except asyncio.TimeoutError:
            self.metrics.inc("service_deadline_exceeded_total")
            self.observability.slo.record_event("service-deadline-exceeded")
            self.observability.slo.record_deadline(False)
            await self._send(writer, Response.failure(
                request.request_id,
                DeadlineExceeded(
                    f"deadline of {deadline:.3f}s exceeded for "
                    f"op {request.op!r}",
                    details={"deadline_s": deadline, "op": request.op}),
                trace_id=trace_id))
            return
        except Exception as exc:
            self.metrics.inc("service_errors_total")
            await self._send(writer, Response.failure(request.request_id,
                                                      map_exception(exc),
                                                      trace_id=trace_id))
            return
        elapsed = self._loop.time() - received
        self.metrics.observe("service_request_seconds", elapsed)
        self.observability.slo.record_latency(elapsed)
        self.observability.slo.record_deadline(True)
        await self._send(writer,
                         Response.success(request.request_id, payload))

    async def _send(self, writer: asyncio.StreamWriter,
                    response: Response) -> None:
        """Write one response frame; a vanished client is not an error."""
        if writer.is_closing():
            return
        try:
            writer.write(encode_binary_frame(response.to_wire()))
            await writer.drain()
        except (ConnectionError, RuntimeError, OSError):
            logger.debug("client went away before response delivery")

    def _inline(self, request: Request) -> Dict[str, Any]:
        """Loop-thread operations; must stay cheap and non-blocking."""
        if request.op == "metrics":
            # ``registry`` is the lossless export (raw histogram values)
            # a client merges into its own registry for fleet-wide
            # aggregation; ``metrics`` stays the human-facing summary.
            return {"metrics": self.metrics.snapshot(),
                    "registry": self.metrics.dump(),
                    "admission": {"admitted": self._admitted,
                                  "max_pending": self.max_pending,
                                  "workers": self.max_workers}}
        return self.service.handle(request)

    def _spawn_task(self, request: Request,
                    key: Optional[str]) -> "asyncio.Future":
        """Start one handler execution (the coalescing-group leader)."""
        task = asyncio.ensure_future(self._loop.run_in_executor(
            self._executor, self._run_handler, request))
        # Keep "task exception was never retrieved" noise out of the
        # logs when every waiter timed out before the failure landed.
        task.add_done_callback(_observe_exception)
        if key is not None:
            self._inflight[key] = task
            task.add_done_callback(
                lambda _t, _k=key: self._inflight.pop(_k, None))
        return task

    def _release(self) -> None:
        self._admitted -= 1
        self.metrics.set_gauge("service_pending", self._admitted)

    def _run_handler(self, request: Request) -> Dict[str, Any]:
        """Execute one handler on a worker thread.

        contextvars do not follow ``run_in_executor``, so the worker
        installs its own observability scope: a fresh per-request
        tracer (the shared tracer's span stack is not concurrency-safe)
        over the shared metrics registry.

        A request carrying a trace context gets traced even when the
        server's own tracer is off — the client's sampling decision
        propagates, as in every distributed-tracing system — and the
        per-request tracer adopts the caller's trace id and parents its
        root span under the caller's span.  Span ids come from a
        per-request :func:`shard_span_base` block, so concurrent
        handlers (and the remote caller) can never collide.
        """
        ctx = (TraceContext.from_wire(request.trace)
               if request.trace is not None else None)
        if ctx is not None or self.observability.tracer.is_recording:
            trace_id = (ctx.trace_id if ctx is not None
                        else self.observability.tracer.trace_id)
            base = (shard_span_base(
                        trace_id, f"server-req-{next(self._request_seq)}")
                    if trace_id is not None else 0)
            tracer = Tracer(
                trace_id=trace_id,
                remote_parent=ctx.span_id if ctx is not None else None,
                span_id_base=base)
            local = Observability(tracer=tracer,
                                  metrics=self.observability.metrics,
                                  slo=self.observability.slo)
        else:
            local = Observability(metrics=self.observability.metrics,
                                  slo=self.observability.slo)
        try:
            with use(local):
                with local.tracer.span("service.request", op=request.op,
                                       request_id=request.request_id):
                    return self.service.handle(request)
        finally:
            spans = local.tracer.spans
            if spans:
                self._request_spans.extend(spans)


async def _read_frame(reader: asyncio.StreamReader, first: bytes) -> bytes:
    """The whole frame that starts with the byte ``first``.

    The magic byte is checked before anything else is read, so a peer
    that sends something other than a frame gets its :class:`FrameError`
    at once instead of waiting on a prefix that may never complete.
    """
    if first != MAGIC:
        raise FrameError(f"bad frame magic 0x{first[0]:02x}: this "
                         f"service reads only binary frames")
    try:
        prefix = first + await reader.readexactly(PREFIX_SIZE - 1)
        _, length = parse_prefix(prefix)
        body = await reader.readexactly(length + 5)
    except asyncio.IncompleteReadError as exc:
        raise FrameError(
            f"truncated frame: connection closed with "
            f"{exc.expected - len(exc.partial)} bytes outstanding") from exc
    return prefix + body


def _observe_exception(task: "asyncio.Future") -> None:
    if not task.cancelled():
        task.exception()


class ServerThread:
    """A :class:`ServiceServer` on a background thread.

    Usage::

        with ServerThread(EstimationService()) as thread:
            client = ServiceClient(thread.bound_address)
            ...

    The default address is TCP ``127.0.0.1:0`` (ephemeral port);
    :meth:`start` blocks until the listener is bound and returns the
    resolved address.
    """

    def __init__(self, service: Optional[EstimationService] = None,
                 address: Optional[ServiceAddress] = None,
                 **server_kwargs: Any) -> None:
        self.service = service if service is not None else EstimationService()
        self.address = (address if address is not None
                        else ServiceAddress(host="127.0.0.1", port=0))
        self.server = ServiceServer(self.service, self.address,
                                    **server_kwargs)
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._ready = threading.Event()
        self._bound: Optional[ServiceAddress] = None
        self._error: Optional[BaseException] = None

    @property
    def bound_address(self) -> ServiceAddress:
        if self._bound is None:
            raise RuntimeError("server thread is not started")
        return self._bound

    def start(self, timeout: float = 10.0) -> ServiceAddress:
        """Launch the loop thread; returns once the listener is bound."""
        if self._thread is not None:
            raise RuntimeError("server thread already started")
        self._thread = threading.Thread(target=self._run,
                                        name="repro-service", daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError(
                f"service failed to start within {timeout}s")
        if self._error is not None:
            raise RuntimeError(
                f"service failed to start: {self._error}") from self._error
        return self._bound

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            loop.run_until_complete(self.server.serve(ready=self._on_ready))
        except BaseException as exc:  # surfaced by start()/stop()
            self._error = exc
            self._ready.set()
        finally:
            loop.close()

    def _on_ready(self, address: ServiceAddress) -> None:
        self._bound = address
        self._ready.set()

    def stop(self, timeout: float = 10.0) -> None:
        """Stop the broker and join the loop thread."""
        if self._thread is None:
            return
        if self._thread.is_alive() and self._loop is not None:
            with contextlib.suppress(RuntimeError):
                self._loop.call_soon_threadsafe(self.server.request_stop)
        self._thread.join(timeout)
        self._thread = None

    def __enter__(self) -> "ServerThread":
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()
