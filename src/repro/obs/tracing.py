"""Structured tracing: nested spans over the LEO runtime loop.

A :class:`Tracer` records :class:`Span` objects — named, timed intervals
with attributes — nested by lexical scope::

    tracer = Tracer()
    with tracer.span("controller.calibrate", estimator="leo"):
        with tracer.span("estimator.fit", quantity="rate") as span:
            ...
            span.set_attribute("iterations", 4)

Span names follow a ``subsystem.operation`` convention; the runtime emits
``controller.calibrate``, ``controller.run``, ``controller.quantum``,
``estimator.fit``, ``em.fit``, ``em.iteration``, ``lp.solve`` and
``experiment.run`` (see docs/OBSERVABILITY.md for the full reference).

Tracing is **off by default**: the ambient tracer is the
:data:`NULL_TRACER` singleton, whose ``span()`` returns a shared no-op
handle without allocating anything, so instrumented hot paths (the EM
iteration, the per-quantum LP re-solve) cost one method call when
disabled.  Traces export as JSONL (:func:`write_trace`) and read back as
spans (:func:`read_trace`) for rendering or offline analysis.

The tracer is intentionally single-threaded (one span stack); the
simulated runtime is synchronous.  Everything here is stdlib-only.

Distributed traces (PR 6) extend, without changing, the local story: a
tracer may carry a ``trace_id``, number its spans from a per-shard
``span_id_base`` (so concurrent processes never collide), and parent
its root spans under a ``remote_parent`` span id received from another
process via :class:`~repro.obs.propagation.TraceContext`.
:func:`repro.obs.collector.merge_spans` folds span shards recorded
elsewhere (service handlers) and this tracer's spans into a single
coherent tree.
"""

from __future__ import annotations

import json
import pathlib
import time
from typing import Any, Dict, Iterable, List, Optional, Sequence, Union

PathLike = Union[str, pathlib.Path]

__all__ = [
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_SPAN",
    "NULL_TRACER",
    "write_trace",
    "read_trace",
]


class Span:
    """One named, timed interval with attributes.

    Spans are created by :meth:`Tracer.span` and double as context
    managers; entering starts the clock, exiting stops it and files the
    span with its tracer.  ``parent_id`` is ``None`` for root spans.
    """

    __slots__ = ("name", "span_id", "parent_id", "start", "end",
                 "attributes", "trace_id", "_tracer")

    def __init__(self, name: str, span_id: int,
                 parent_id: Optional[int] = None,
                 start: float = 0.0, end: float = 0.0,
                 attributes: Optional[Dict[str, Any]] = None,
                 trace_id: Optional[str] = None,
                 _tracer: Optional["Tracer"] = None) -> None:
        if not name:
            raise ValueError("span name must be non-empty")
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = start
        self.end = end
        self.attributes: Dict[str, Any] = attributes if attributes is not None else {}
        self.trace_id = trace_id
        self._tracer = _tracer

    # -- recording ------------------------------------------------------
    def set_attribute(self, key: str, value: Any) -> None:
        """Attach or overwrite one attribute."""
        self.attributes[key] = value

    def __enter__(self) -> "Span":
        if self._tracer is None:
            raise RuntimeError("span is detached from its tracer")
        self._tracer._enter(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self.attributes.setdefault("error", exc_type.__name__)
        self._tracer._exit(self)
        return False

    # -- reading --------------------------------------------------------
    @property
    def duration(self) -> float:
        """Wall-clock seconds between enter and exit."""
        return self.end - self.start

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable representation (one JSONL line).

        ``trace_id`` appears only when set, so single-process traces
        (and the fixtures asserting on them) keep their PR-1 shape.
        """
        payload = {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "attributes": self.attributes,
        }
        if self.trace_id is not None:
            payload["trace_id"] = self.trace_id
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "Span":
        """Rebuild a span from :meth:`to_dict` output."""
        return cls(name=payload["name"], span_id=int(payload["span_id"]),
                   parent_id=(None if payload.get("parent_id") is None
                              else int(payload["parent_id"])),
                   start=float(payload["start"]), end=float(payload["end"]),
                   attributes=dict(payload.get("attributes", {})),
                   trace_id=payload.get("trace_id"))

    def __repr__(self) -> str:
        return (f"Span({self.name!r}, id={self.span_id}, "
                f"parent={self.parent_id}, duration={self.duration:.6f})")


class _NullSpan:
    """The shared no-op span handle; everything about it is free."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set_attribute(self, key: str, value: Any) -> None:
        pass

    @property
    def attributes(self) -> Dict[str, Any]:
        """Always empty (writes are discarded)."""
        return {}


#: The singleton no-op span every :class:`NullTracer` hands out.
NULL_SPAN = _NullSpan()


class NullTracer:
    """The disabled tracer: records nothing, allocates nothing."""

    #: Instrumented code can branch on this to skip attribute building.
    is_recording = False

    #: Mirrors :class:`Tracer` so propagation code needs no isinstance.
    trace_id: Optional[str] = None
    current_span_id: Optional[int] = None

    def span(self, name: str, **attributes: Any) -> _NullSpan:
        """Return the shared no-op span handle."""
        return NULL_SPAN

    @property
    def spans(self) -> Sequence[Span]:
        """Always empty."""
        return ()


#: The singleton disabled tracer (the ambient default).
NULL_TRACER = NullTracer()


class Tracer:
    """Records nested spans in completion order.

    Args:
        clock: Monotonic time source; ``time.perf_counter`` by default
            (injectable for deterministic tests).
        trace_id: Optional distributed-trace identity stamped on every
            recorded span; ``None`` (the default) keeps the tracer
            purely local and its spans in the PR-1 shape.
        remote_parent: Span id (from another process's
            :class:`~repro.obs.propagation.TraceContext`) adopted as
            the parent of this tracer's root spans, stitching the shard
            under its caller in the merged tree.
        span_id_base: First span id minus one; remote shards pass
            :func:`~repro.obs.propagation.shard_span_base` output so
            their ids never collide with other processes'.
    """

    is_recording = True

    def __init__(self, clock=time.perf_counter,
                 trace_id: Optional[str] = None,
                 remote_parent: Optional[int] = None,
                 span_id_base: int = 0) -> None:
        self._clock = clock
        self.trace_id = trace_id
        self.remote_parent = remote_parent
        self._finished: List[Span] = []
        self._stack: List[Span] = []
        self._next_id = span_id_base + 1

    def span(self, name: str, **attributes: Any) -> Span:
        """Create a span; enter it (``with``) to start the clock."""
        span = Span(name=name, span_id=self._next_id,
                    attributes=dict(attributes) if attributes else {},
                    trace_id=self.trace_id, _tracer=self)
        self._next_id += 1
        return span

    @property
    def current_span_id(self) -> Optional[int]:
        """The innermost open span's id (what new work parents under).

        Falls back to the remote parent when the local stack is empty,
        so propagation from a just-entered shard still points at the
        right ancestor.
        """
        if self._stack:
            return self._stack[-1].span_id
        return self.remote_parent

    # -- span lifecycle (driven by Span.__enter__/__exit__) -------------
    def _enter(self, span: Span) -> None:
        span.parent_id = (self._stack[-1].span_id if self._stack
                          else self.remote_parent)
        span.start = self._clock()
        self._stack.append(span)

    def _exit(self, span: Span) -> None:
        span.end = self._clock()
        if not self._stack or self._stack[-1] is not span:
            raise RuntimeError(
                f"span {span.name!r} exited out of order"
            )
        self._stack.pop()
        self._finished.append(span)

    # -- reading --------------------------------------------------------
    @property
    def spans(self) -> List[Span]:
        """Finished spans sorted by start time (parents before children)."""
        return sorted(self._finished, key=lambda s: (s.start, s.span_id))

    @property
    def num_finished(self) -> int:
        """Finished-span count (cheap bookmark for slicing)."""
        return len(self._finished)

    def finished_since(self, mark: int) -> List[Span]:
        """Spans finished after a :attr:`num_finished` bookmark."""
        return sorted(self._finished[mark:],
                      key=lambda s: (s.start, s.span_id))

    def clear(self) -> None:
        """Drop all finished spans (open spans are unaffected)."""
        self._finished.clear()


# ----------------------------------------------------------------------
# JSONL persistence
# ----------------------------------------------------------------------
def write_trace(path: PathLike, spans: Iterable[Span]) -> pathlib.Path:
    """Write spans as one JSON object per line, sorted by start time."""
    path = pathlib.Path(path)
    ordered = sorted(spans, key=lambda s: (s.start, s.span_id))
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as handle:
        for span in ordered:
            handle.write(json.dumps(span.to_dict(), default=_jsonable))
            handle.write("\n")
    return path


def read_trace(path: PathLike) -> List[Span]:
    """Read a JSONL trace back into spans, sorted by start time."""
    path = pathlib.Path(path)
    spans: List[Span] = []
    with path.open() as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                spans.append(Span.from_dict(json.loads(line)))
            except (ValueError, KeyError) as exc:
                raise ValueError(
                    f"malformed trace line {lineno} in {path}: {exc}"
                ) from exc
    return sorted(spans, key=lambda s: (s.start, s.span_id))


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
