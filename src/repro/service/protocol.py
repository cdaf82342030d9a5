"""The estimation service's wire protocol.

One request or response per line, each a single JSON object (JSON
lines): a client writes ``{"v": 1, "id": 7, "op": "estimate",
"deadline_s": 5.0, "payload": {...}}\\n`` and reads back ``{"v": 1,
"id": 7, "ok": true, "payload": {...}}\\n`` or ``{"v": 1, "id": 7,
"ok": false, "error": {"type": "overloaded", ...}}\\n``.  Responses on
a pipelined connection may arrive out of order; the ``id`` field is the
correlation key.

Numeric fidelity matters here: tradeoff curves round-trip through JSON
bit-exactly, because Python serializes floats with ``repr`` (shortest
round-trip representation) and parses them back to the identical IEEE-754
double.  That property is what lets a :class:`~repro.service.client.
RemoteEstimator`-backed controller reproduce an in-process run exactly.

Float arrays stay float64 ``ndarray`` objects in a payload
(:func:`encode_array`).  The binary wire (protocol v2,
:mod:`repro.service.frames`) carries each as one raw block; this
module's JSON lines print it as nested lists, byte for byte what a list
payload prints.  The coalescing key (:func:`fingerprint`) hashes an
array's shape and bytes instead of printing its floats.

Error types are part of the protocol: each :class:`ServiceError`
subclass owns a wire-level ``code``, the server serializes the code and
message, and the client rehydrates the matching exception class — so
``except ServiceOverloaded`` works across the socket.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import socket
import struct
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro.estimators.base import EstimationProblem

__all__ = [
    "PROTOCOL_VERSION",
    "ServiceError",
    "ServiceOverloaded",
    "DeadlineExceeded",
    "RequestRejected",
    "EstimationRejected",
    "ProtocolError",
    "FrameError",
    "RemoteError",
    "ShardUnavailable",
    "exception_for",
    "Request",
    "Response",
    "ServiceAddress",
    "encode_frame",
    "decode_frame",
    "encode_array",
    "decode_array",
    "problem_to_payload",
    "problem_from_payload",
    "fingerprint",
]

#: Version stamped on every frame; a server rejects frames from the
#: future rather than misinterpreting them.
PROTOCOL_VERSION = 1


# ----------------------------------------------------------------------
# Typed errors
# ----------------------------------------------------------------------
# The ServiceError family was born in this module and moved to
# repro.errors in the exception consolidation; these aliases keep
# ``from repro.service.protocol import ServiceOverloaded`` (and every
# ``except`` clause written against it) resolving to the same class
# objects.
from repro.errors import (  # noqa: E402  (re-export block)
    DeadlineExceeded,
    EstimationRejected,
    FrameError,
    ProtocolError,
    RemoteError,
    RequestRejected,
    ServiceError,
    ServiceOverloaded,
    ShardUnavailable,
)

_ERROR_TYPES: Dict[str, type] = {
    cls.code: cls
    for cls in (ServiceOverloaded, DeadlineExceeded, RequestRejected,
                EstimationRejected, ProtocolError, FrameError,
                RemoteError, ShardUnavailable)
}


def exception_for(code: str, message: str,
                  details: Optional[Dict[str, Any]] = None) -> ServiceError:
    """Rehydrate the typed exception for a wire-level error code."""
    cls = _ERROR_TYPES.get(code, RemoteError)
    exc = cls(message, details=details)
    exc.code = code  # preserve unknown codes verbatim
    return exc


# ----------------------------------------------------------------------
# Frames
# ----------------------------------------------------------------------
def encode_frame(obj: Dict[str, Any]) -> bytes:
    """One JSON-lines frame (compact separators, trailing newline)."""
    return (json.dumps(obj, separators=(",", ":"), default=_jsonable)
            + "\n").encode("utf-8")


def decode_frame(line: bytes) -> Dict[str, Any]:
    """Parse one frame; raises :class:`ProtocolError` on malformed input."""
    try:
        obj = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise ProtocolError(f"unparseable frame: {exc}") from exc
    if not isinstance(obj, dict):
        raise ProtocolError(
            f"frame must be a JSON object, got {type(obj).__name__}")
    return obj


def _jsonable(value: Any):
    """Fallback serializer: numpy scalars and arrays degrade gracefully.

    ``tolist`` is checked before ``item`` — arrays expose both, but
    ``item()`` only works for single-element arrays.
    """
    if hasattr(value, "tolist"):
        return value.tolist()
    if hasattr(value, "item"):
        return value.item()
    return str(value)


@dataclasses.dataclass
class Request:
    """One operation invocation.

    Attributes:
        op: Operation name (``ping``, ``estimate``, ``optimize``,
            ``calibrate-report``, ``metrics``, ``registry-list``,
            ``sleep``, ``shutdown``).
        payload: Operation-specific arguments.
        request_id: Client-chosen correlation id, echoed in the response.
        deadline_s: Seconds the client is willing to wait, measured from
            server receipt; ``None`` uses the server's default.
        trace: Optional trace-context dict
            (:meth:`repro.obs.propagation.TraceContext.to_wire`); absent
            from the frame when ``None``, so untraced runs pay zero wire
            bytes.  Malformed contexts are dropped server-side rather
            than failing the request.
    """

    op: str
    payload: Dict[str, Any] = dataclasses.field(default_factory=dict)
    request_id: int = 0
    deadline_s: Optional[float] = None
    trace: Optional[Dict[str, Any]] = None

    def to_wire(self) -> Dict[str, Any]:
        frame: Dict[str, Any] = {"v": PROTOCOL_VERSION,
                                 "id": self.request_id, "op": self.op,
                                 "payload": self.payload}
        if self.deadline_s is not None:
            frame["deadline_s"] = self.deadline_s
        if self.trace is not None:
            frame["trace"] = self.trace
        return frame

    @classmethod
    def from_wire(cls, frame: Dict[str, Any]) -> "Request":
        version = frame.get("v", PROTOCOL_VERSION)
        if not isinstance(version, int) or version > PROTOCOL_VERSION:
            raise ProtocolError(
                f"unsupported protocol version {version!r} "
                f"(this server speaks {PROTOCOL_VERSION})")
        op = frame.get("op")
        if not isinstance(op, str) or not op:
            raise ProtocolError("frame lacks an 'op' string")
        payload = frame.get("payload", {})
        if not isinstance(payload, dict):
            raise ProtocolError("'payload' must be a JSON object")
        deadline = frame.get("deadline_s")
        if deadline is not None:
            try:
                deadline = float(deadline)
            except (TypeError, ValueError):
                raise ProtocolError("'deadline_s' must be a number") from None
            if deadline <= 0:
                raise ProtocolError(
                    f"'deadline_s' must be positive, got {deadline}")
        trace = frame.get("trace")
        if not isinstance(trace, dict):
            trace = None
        return cls(op=op, payload=payload,
                   request_id=frame.get("id", 0), deadline_s=deadline,
                   trace=trace)


@dataclasses.dataclass
class Response:
    """The outcome of one request: a payload, or a typed error."""

    request_id: Optional[int]
    ok: bool
    payload: Dict[str, Any] = dataclasses.field(default_factory=dict)
    error: Optional[Dict[str, Any]] = None

    @classmethod
    def success(cls, request_id: Optional[int],
                payload: Dict[str, Any]) -> "Response":
        return cls(request_id=request_id, ok=True, payload=payload)

    @classmethod
    def failure(cls, request_id: Optional[int], exc: Exception,
                trace_id: Optional[str] = None) -> "Response":
        if isinstance(exc, ServiceError):
            error = {"type": exc.code, "message": str(exc),
                     "details": exc.details}
        else:
            error = {"type": RemoteError.code,
                     "message": f"{type(exc).__name__}: {exc}",
                     "details": {}}
        # Stamp the trace id into the error payload so a client log line
        # or a rehydrated exception can be joined against the merged
        # trace tree.  Details set by the handler win.
        if trace_id is not None and "trace_id" not in error["details"]:
            error["details"] = dict(error["details"], trace_id=trace_id)
        return cls(request_id=request_id, ok=False, error=error)

    def result(self) -> Dict[str, Any]:
        """The payload, or the rehydrated typed exception."""
        if self.ok:
            return self.payload
        error = self.error or {}
        raise exception_for(error.get("type", RemoteError.code),
                            error.get("message", "unknown error"),
                            error.get("details"))

    def to_wire(self) -> Dict[str, Any]:
        frame: Dict[str, Any] = {"v": PROTOCOL_VERSION,
                                 "id": self.request_id, "ok": self.ok}
        if self.ok:
            frame["payload"] = self.payload
        else:
            frame["error"] = self.error
        return frame

    @classmethod
    def from_wire(cls, frame: Dict[str, Any]) -> "Response":
        if "ok" not in frame:
            raise ProtocolError("response frame lacks 'ok'")
        return cls(request_id=frame.get("id"), ok=bool(frame["ok"]),
                   payload=frame.get("payload", {}) or {},
                   error=frame.get("error"))


# ----------------------------------------------------------------------
# Addresses
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class ServiceAddress:
    """Where a service listens: TCP ``host:port`` or a unix socket path."""

    host: Optional[str] = None
    port: Optional[int] = None
    path: Optional[str] = None

    def __post_init__(self) -> None:
        if self.path is None and (self.host is None or self.port is None):
            raise ValueError(
                "address needs either a unix socket path or host and port")
        if self.path is not None and self.host is not None:
            raise ValueError("address cannot have both a path and a host")

    def connect(self, timeout: Optional[float] = None) -> socket.socket:
        """Open a connected stream socket to this address."""
        if self.path is not None:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(timeout)
            try:
                sock.connect(self.path)
            except BaseException:
                sock.close()
                raise
            return sock
        return socket.create_connection((self.host, self.port),
                                        timeout=timeout)

    @classmethod
    def parse(cls, text: str) -> "ServiceAddress":
        """Parse ``unix:/path/to.sock`` or ``host:port``."""
        if text.startswith("unix:"):
            return cls(path=text[len("unix:"):])
        host, sep, port = text.rpartition(":")
        if not sep or not port.isdigit():
            raise ValueError(
                f"cannot parse address {text!r}; expected host:port or "
                f"unix:/path")
        return cls(host=host or "127.0.0.1", port=int(port))

    def __str__(self) -> str:
        if self.path is not None:
            return f"unix:{self.path}"
        return f"{self.host}:{self.port}"


# ----------------------------------------------------------------------
# Payload codecs
# ----------------------------------------------------------------------
def encode_array(array: Any) -> np.ndarray:
    """A float array for a payload: a float64 copy of ``array``.

    The copy keeps a payload from aliasing the caller's arrays.  Binary
    frames carry it as one raw block; :func:`encode_frame` prints it as
    the nested lists ``tolist`` gives, exact for IEEE doubles.
    """
    return np.array(array, dtype=np.float64)


def decode_array(value: Any) -> np.ndarray:
    """Rebuild a float array from an array or from nested lists."""
    return np.asarray(value, dtype=float)


def problem_to_payload(problem: EstimationProblem) -> Dict[str, Any]:
    """Serialize an :class:`EstimationProblem` for the ``estimate`` op.

    Features, prior and observed values travel as float64 arrays; the
    observed indices as a list of ints.
    """
    return {
        "features": encode_array(problem.features),
        "prior": (None if problem.prior is None
                  else encode_array(problem.prior)),
        "observed_indices": [int(i) for i in problem.observed_indices],
        "observed_values": encode_array(problem.observed_values),
    }


def problem_from_payload(payload: Dict[str, Any]) -> EstimationProblem:
    """Rebuild an :class:`EstimationProblem`; validation happens in its
    constructor, surfacing malformed payloads as ``ValueError``."""
    try:
        prior = payload.get("prior")
        return EstimationProblem(
            features=decode_array(payload["features"]),
            prior=None if prior is None else decode_array(prior),
            observed_indices=np.asarray(payload["observed_indices"],
                                        dtype=int),
            observed_values=decode_array(payload["observed_values"]),
        )
    except KeyError as exc:
        raise RequestRejected(f"problem payload lacks {exc}") from exc


#: What an array prints as in :func:`fingerprint`'s canonical text.
_ARRAY_MARK = "\x00ndarray"
_ARRAY_MARK_JSON = json.dumps(_ARRAY_MARK)


def fingerprint(op: str, payload: Dict[str, Any]) -> str:
    """Content digest used as the request-coalescing key.

    SHA-256 over canonical JSON (sorted keys) of the operation and
    payload, in which each array prints as a stand-in mark.  The text
    is length-prefixed, and each array's shape and little-endian
    float64 bytes follow it in the order the sorted walk met them, so a
    payload without arrays cannot produce an array payload's key.  When
    the payload also spells the mark itself, the arrays print as lists
    instead, behind a NUL that canonical JSON never starts with.  Two
    requests with the same fingerprint are guaranteed to produce the
    same result, so the broker runs one fit and fans the answer out.

    Keys depend on the encoding: an array and an equal list hash
    differently, so identical requests coalesce when they arrive on the
    same wire.
    """
    arrays: List[np.ndarray] = []

    def stand_in(value: Any) -> Any:
        if isinstance(value, np.ndarray):
            arrays.append(value)
            return _ARRAY_MARK
        return _jsonable(value)

    def canonical(default: Callable[[Any], Any]) -> str:
        return json.dumps([op, payload], sort_keys=True,
                          separators=(",", ":"), default=default)

    text = canonical(stand_in)
    if arrays and text.count(_ARRAY_MARK_JSON) != len(arrays):
        arrays = []
        text = "\x00" + canonical(_jsonable)
    data = text.encode("utf-8")
    digest = hashlib.sha256(struct.pack(">Q", len(data)))
    digest.update(data)
    for array in arrays:
        block = np.asarray(array, dtype="<f8")
        digest.update(struct.pack(f">{block.ndim + 1}Q", block.ndim,
                                  *block.shape))
        digest.update(block.tobytes())
    return digest.hexdigest()
