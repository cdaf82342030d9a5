"""Trace-context propagation across process and socket boundaries.

The estimation service handles each request on its own tracer, often
in another process (``repro serve``), so without propagation its
handler spans would never join the caller's trace.  This module carries
a trace across those boundaries:

* :class:`TraceContext` — the serializable triple ``(trace_id, parent
  span_id, baggage)``.  Small enough to ride in a wire frame's optional
  ``trace`` field; absent entirely when tracing is off, so the disabled
  path adds zero bytes to the wire.
* :func:`current_trace_context` — snapshot the ambient tracer's
  position (innermost open span) for injection into an outgoing
  request.  Returns ``None`` when not recording.
* :func:`shard_span_base` — a per-shard span-id block.  Every remote
  participant numbers its spans from a disjoint 2^32-aligned base
  derived from ``(trace_id, shard name)``, so shards merge without id
  collisions and without any cross-process coordination.

The receiving side builds a :class:`~repro.obs.tracing.Tracer` with
``trace_id=ctx.trace_id, remote_parent=ctx.span_id,
span_id_base=shard_span_base(...)``: its root spans parent under the
remote caller's span, and the collector (:mod:`repro.obs.collector`)
folds the shards into one coherent tree.

Trace ids are 16 hex characters.  :func:`new_trace_id` draws from OS
entropy by default but accepts a seed for deterministic tests; neither
touches numpy's RNG streams, so enabling tracing never perturbs an
experiment's results.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
from typing import Any, Dict, Optional

__all__ = [
    "TraceContext",
    "current_trace_context",
    "new_trace_id",
    "shard_span_base",
]

#: Shard span-id blocks start here; the originating process allocates
#: ids from 1, so anything below the first block is unambiguously local.
_SHARD_SHIFT = 32


def new_trace_id(seed: Optional[object] = None) -> str:
    """A 16-hex-character trace id.

    ``seed=None`` draws 8 bytes of OS entropy (never numpy's streams);
    any other value derives the id deterministically via SHA-256, which
    is what keeps traced test runs reproducible.
    """
    if seed is None:
        return os.urandom(8).hex()
    digest = hashlib.sha256(repr(seed).encode("utf-8"))
    return digest.hexdigest()[:16]


def shard_span_base(trace_id: str, shard: str) -> int:
    """The span-id block base for one shard of a distributed trace.

    SHA-256 over ``(trace_id, shard)`` picks a 31-bit block number,
    shifted above the 32-bit local-id range — deterministic (the same
    shard name always gets the same block), coordination-free, and
    collision-free against the originating process's ids.  Distinct
    shards collide only on a 31-bit hash collision, which the collector
    additionally repairs by remapping (:func:`repro.obs.collector.
    merge_spans`).
    """
    digest = hashlib.sha256(f"{trace_id}/{shard}".encode("utf-8")).digest()
    block = (int.from_bytes(digest[:4], "big") >> 1) | 1
    return block << _SHARD_SHIFT


@dataclasses.dataclass(frozen=True)
class TraceContext:
    """The portable identity of a position inside a distributed trace.

    Attributes:
        trace_id: The trace this position belongs to (16 hex chars).
        span_id: The span the remote work should parent under; ``None``
            makes remote roots top-level (a trace with no open span).
        baggage: Small string-to-string map carried verbatim along the
            call path (tenant names, experiment labels).  Keep it tiny:
            it rides every frame.
    """

    trace_id: str
    span_id: Optional[int] = None
    baggage: Dict[str, str] = dataclasses.field(default_factory=dict)

    def to_wire(self) -> Dict[str, Any]:
        """The JSON-ready form carried in a frame's ``trace`` field."""
        wire: Dict[str, Any] = {"trace_id": self.trace_id}
        if self.span_id is not None:
            wire["span_id"] = self.span_id
        if self.baggage:
            wire["baggage"] = dict(self.baggage)
        return wire

    @classmethod
    def from_wire(cls, payload: Any) -> Optional["TraceContext"]:
        """Rebuild a context from a frame; tolerant of malformed input.

        Propagation is best-effort metadata — a bad ``trace`` field
        must degrade to "no context", never fail the request carrying
        it.
        """
        if not isinstance(payload, dict):
            return None
        trace_id = payload.get("trace_id")
        if not isinstance(trace_id, str) or not trace_id:
            return None
        span_id = payload.get("span_id")
        if span_id is not None:
            try:
                span_id = int(span_id)
            except (TypeError, ValueError):
                span_id = None
        baggage = payload.get("baggage")
        if not isinstance(baggage, dict):
            baggage = {}
        return cls(trace_id=trace_id, span_id=span_id,
                   baggage={str(k): str(v) for k, v in baggage.items()})

    def child(self, span_id: Optional[int]) -> "TraceContext":
        """The same trace, repositioned under ``span_id``."""
        return TraceContext(trace_id=self.trace_id, span_id=span_id,
                            baggage=self.baggage)


def current_trace_context() -> Optional[TraceContext]:
    """Snapshot the ambient tracer's position for propagation.

    ``None`` when the ambient tracer is not recording or carries no
    trace id (a bare local :class:`~repro.obs.tracing.Tracer`), which
    callers treat as "send nothing" — the optional wire field stays
    absent and the disabled path stays zero-cost.
    """
    from repro.obs.context import get_tracer

    tracer = get_tracer()
    if not tracer.is_recording:
        return None
    trace_id = getattr(tracer, "trace_id", None)
    if not trace_id:
        return None
    return TraceContext(trace_id=trace_id, span_id=tracer.current_span_id)
