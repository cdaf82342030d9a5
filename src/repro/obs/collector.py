"""Merging per-process span shards into one coherent trace.

A distributed run leaves spans in several places: the originating
tracer and service servers (per-request tracers, exported to their own
JSONL).
The collector folds any combination into a single tree:

* :func:`merge_spans` — concatenate shards, repairing duplicate span
  ids by remapping the later shard's ids (and its internal parent
  references) into fresh space.  Ids are already disjoint by
  construction (:func:`~repro.obs.propagation.shard_span_base`), so
  remapping is the belt to that suspender: a hash collision or a buggy
  exporter degrades to a still-renderable tree, not a cycle.
* :func:`read_shards` — :func:`merge_spans` over JSONL trace files,
  what ``repro obs summarize a.jsonl b.jsonl`` runs.
* :func:`orphan_spans` — spans whose parent is missing from the merged
  set; the acceptance check for "every shard arrived".

Merging never invents parents: a genuinely orphaned span stays orphaned
(and the renderer promotes it to a root), because silently reparenting
would hide exactly the propagation bugs this layer exists to surface.
"""

from __future__ import annotations

import pathlib
from typing import Dict, Iterable, List, Sequence, Union

from repro.obs.tracing import Span, read_trace

PathLike = Union[str, pathlib.Path]

__all__ = ["merge_spans", "read_shards", "orphan_spans"]


def merge_spans(*shards: Iterable[Span]) -> List[Span]:
    """Merge span shards into one list, repairing id collisions.

    Shards are taken in argument order; a span whose id collides with
    one from an *earlier* shard is remapped to a fresh id, and parent
    references inside its own shard follow it.  Within-shard duplicates
    are kept verbatim — they are recorder bugs the renderer must
    tolerate, not repair.  The result is sorted like every other span
    list: by ``(start, span_id)``.
    """
    merged: List[Span] = []
    seen: set = set()
    next_fresh = 0
    for shard in shards:
        shard = list(shard)
        remap: Dict[int, int] = {}
        shard_ids = {span.span_id for span in shard}
        for span in shard:
            if span.span_id in seen and span.span_id not in remap:
                while next_fresh in seen or next_fresh in shard_ids:
                    next_fresh += 1
                remap[span.span_id] = next_fresh
                seen.add(next_fresh)
        for span in shard:
            span_id = remap.get(span.span_id, span.span_id)
            parent_id = span.parent_id
            # Only in-shard parent references follow a remap: the
            # colliding id means something else in the other shard.
            if parent_id is not None and parent_id in remap \
                    and parent_id in shard_ids:
                parent_id = remap[parent_id]
            if span_id != span.span_id or parent_id != span.parent_id:
                span = Span(name=span.name, span_id=span_id,
                            parent_id=parent_id, start=span.start,
                            end=span.end,
                            attributes=dict(span.attributes),
                            trace_id=span.trace_id)
            merged.append(span)
            seen.add(span_id)
        next_fresh = max(seen, default=0) + 1
    return sorted(merged, key=lambda s: (s.start, s.span_id))


def read_shards(paths: Sequence[PathLike]) -> List[Span]:
    """Read several JSONL trace shards and merge them."""
    return merge_spans(*(read_trace(path) for path in paths))


def orphan_spans(spans: Sequence[Span]) -> List[Span]:
    """Spans whose parent id is set but absent from ``spans``.

    An empty result is the distributed-trace acceptance condition:
    every cross-process edge resolved, so the merged tree is whole.
    """
    present = {span.span_id for span in spans}
    return [span for span in spans
            if span.parent_id is not None and span.parent_id not in present]
