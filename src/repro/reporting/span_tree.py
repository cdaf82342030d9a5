"""ASCII rendering and summarization of recorded trace spans.

Turns the flat span list a :class:`repro.obs.Tracer` records (or a JSONL
trace file read back with :func:`repro.obs.read_trace`) into the two
views humans want:

* :func:`render_span_tree` — the nested call tree with durations, the
  ``repro obs summarize`` output;
* :func:`summarize_spans` — per-span-name aggregates (count, total and
  mean duration), which is how the Section 6.7 overhead table is read
  off a trace (sum the ``estimator.fit`` rows);
* :func:`critical_path` — the heaviest root-to-leaf chain, the
  ``repro obs critical-path`` output.

Distributed traces arrive here as merged shards (see
:mod:`repro.obs.collector`), so the renderer must tolerate recorder and
exporter bugs rather than crash on them: a span whose parent is missing
is promoted to a root, a span naming *itself* as parent likewise, and
duplicate span ids render once each without recursing forever.  Repair
stays the collector's job; rendering only refuses to lie or loop.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.obs import Span

#: Attributes worth showing inline in the tree (kept short so the tree
#: stays readable; everything else remains in the JSONL).
_INLINE_ATTRS = ("estimator", "iteration", "config_index", "idle",
                 "recalibrated", "experiment", "error")


def _format_duration(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.3f}s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.2f}ms"
    return f"{seconds * 1e6:.0f}us"


def _format_attrs(span: Span) -> str:
    shown = [f"{key}={span.attributes[key]}" for key in _INLINE_ATTRS
             if key in span.attributes]
    return f" [{', '.join(shown)}]" if shown else ""


def render_span_tree(spans: Sequence[Span], max_children: int = 40) -> str:
    """Render spans as an indented tree with durations.

    Children are ordered by start time under their parent; siblings
    beyond ``max_children`` are elided with a count (a controller run
    records one span per quantum, which would otherwise drown the tree).
    """
    spans = sorted(spans, key=lambda s: (s.start, s.span_id))
    children = _child_index(spans)
    lines: List[str] = []
    visited: set = set()

    def visit(span: Span, depth: int) -> None:
        # Duplicate span ids share one children list; each span object
        # still renders at most once, and a parent/child cycle (however
        # it got recorded) terminates instead of recursing forever.
        if id(span) in visited:
            return
        visited.add(id(span))
        indent = "  " * depth
        lines.append(f"{indent}{span.name}  "
                     f"{_format_duration(span.duration)}"
                     f"{_format_attrs(span)}")
        kids = children.get(span.span_id, [])
        for child in kids[:max_children]:
            visit(child, depth + 1)
        if len(kids) > max_children:
            lines.append(f"{indent}  ... {len(kids) - max_children} more "
                         f"{kids[max_children].name} siblings elided")

    for root in children.get(None, []):
        visit(root, 0)
    # Spans only reachable through a cycle never got visited; surface
    # them as roots so nothing silently disappears from the rendering.
    for span in spans:
        if id(span) not in visited:
            visit(span, 0)
    return "\n".join(lines)


def _child_index(spans: Sequence[Span]) -> Dict[Optional[int], List[Span]]:
    """Group spans by parent, promoting unparentable spans to roots.

    A parent outside the set (e.g. a filtered trace, a shard that never
    arrived) and a span naming itself as its own parent both become
    roots rather than being dropped.
    """
    children: Dict[Optional[int], List[Span]] = {}
    span_ids = {span.span_id for span in spans}
    for span in spans:
        parent = span.parent_id
        if parent == span.span_id or parent not in span_ids:
            parent = None
        children.setdefault(parent, []).append(span)
    return children


def critical_path(spans: Sequence[Span]) -> List[Span]:
    """The heaviest root-to-leaf chain through the span tree.

    Starts at the longest root and repeatedly descends into the child
    with the largest duration — the chain a latency optimization should
    attack first.  In a merged distributed trace this walks straight
    across process boundaries (client call → service handler), which is
    the point of stitching the shards together.  Returns the spans along
    the path, root first; empty for an empty trace.
    """
    spans = sorted(spans, key=lambda s: (s.start, s.span_id))
    if not spans:
        return []
    children = _child_index(spans)
    # A rootless trace (every span inside a parent cycle) still yields
    # a path: start from the longest span, like the renderer's
    # nothing-disappears rule.
    roots = children.get(None, []) or spans
    path: List[Span] = []
    seen: set = set()
    node: Optional[Span] = max(roots, key=lambda s: s.duration)
    while node is not None and id(node) not in seen:
        seen.add(id(node))
        path.append(node)
        kids = [child for child in children.get(node.span_id, [])
                if id(child) not in seen]
        node = max(kids, key=lambda s: s.duration) if kids else None
    return path


def summarize_spans(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Aggregate spans by name: ``{name: {count, total_s, mean_s}}``.

    Names are sorted for stable output; durations are wall-clock
    seconds.  Summing the ``estimator.fit`` row reproduces the paper's
    Section 6.7 fit-time overhead for the traced run.
    """
    grouped: Dict[str, List[float]] = {}
    for span in spans:
        grouped.setdefault(span.name, []).append(span.duration)
    return {
        name: {
            "count": float(len(durations)),
            "total_s": sum(durations),
            "mean_s": sum(durations) / len(durations),
        }
        for name, durations in sorted(grouped.items())
    }
