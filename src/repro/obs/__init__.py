"""Observability: structured tracing, metrics, and profiling hooks.

A dependency-free subsystem with three pillars (see
docs/OBSERVABILITY.md for the span/metric reference):

* **Tracing** — :class:`Tracer` records nested :class:`Span` objects
  over the runtime loop (``controller.calibrate`` → ``estimator.fit`` →
  ``em.iteration``; ``controller.quantum`` → ``lp.solve``), exportable
  as JSONL via :func:`write_trace` and renderable as an ASCII tree via
  :func:`repro.reporting.render_span_tree`.
* **Metrics** — :class:`MetricsRegistry` owns counters, gauges and
  histograms (``em_iterations_total``, ``lp_resolves_total``,
  ``fit_seconds``, ``sampling_energy_joules``,
  ``constraint_violation_ratio``) with a :meth:`~MetricsRegistry.snapshot`
  export.
* **Profiling** — :func:`start_timer` / :func:`stop_timer` hooks on
  the EM, hull, and LP hot paths.

Everything is **off by default**: the ambient context holds null
implementations whose operations are single no-op calls, so the Section
6.7 overhead numbers are unaffected by the instrumentation.  Enable per
block with::

    from repro.obs import Observability, use, write_trace

    ob = Observability.recording()
    with use(ob):
        controller.run(...)
    write_trace("run.jsonl", ob.tracer.spans)
    ob.metrics.write_json("run-metrics.json")

or from the CLI with ``--trace`` / ``--metrics`` / ``--slo`` and inspect
with ``python -m repro obs summarize run.jsonl`` (``slo`` and
``critical-path`` subcommands cover the other artifacts).

Distributed runs (PR 6) add three layers on top, all off by default:

* **Propagation** — :class:`TraceContext` carries ``(trace_id, parent
  span id, baggage)`` across sockets (the service wire protocol) and
  process pools (the harness initializer); receiving tracers number
  spans from disjoint :func:`shard_span_base` blocks, and
  :func:`merge_spans` / :func:`read_shards` fold the shards back into
  one tree.
* **Aggregation** — :meth:`MetricsRegistry.dump` /
  :meth:`~MetricsRegistry.merge` move whole registries between
  processes losslessly (counters add, gauges last-write, histograms
  concatenate raw values); :func:`labeled` encodes per-tenant label
  dimensions into series names.
* **SLOs** — :class:`SloTracker` evaluates latency / deadline-hit-rate
  / energy-overhead objectives with error-budget burn rates over
  :class:`TimeSeries` ring buffers, and counts resilience events.
"""

from repro.obs.collector import merge_spans, orphan_spans, read_shards
from repro.obs.context import (
    NULL_OBSERVABILITY,
    Observability,
    get_metrics,
    get_observability,
    get_slo,
    get_tracer,
    use,
)
from repro.obs.logging_setup import StructuredFormatter, logging_setup
from repro.obs.metrics import (
    NULL_METRICS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetrics,
    labeled,
    parse_labeled,
)
from repro.obs.profiling import start_timer, stop_timer
from repro.obs.propagation import (
    TraceContext,
    current_trace_context,
    new_trace_id,
    shard_span_base,
)
from repro.obs.slo import (
    DEFAULT_OBJECTIVES,
    NULL_SLO,
    NullSloTracker,
    SloObjective,
    SloStatus,
    SloTracker,
)
from repro.obs.timeseries import TimeSeries
from repro.obs.tracing import (
    NULL_SPAN,
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    read_trace,
    write_trace,
)

__all__ = [
    "Observability",
    "NULL_OBSERVABILITY",
    "get_observability",
    "get_tracer",
    "get_metrics",
    "get_slo",
    "use",
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_SPAN",
    "NULL_TRACER",
    "read_trace",
    "write_trace",
    "TraceContext",
    "current_trace_context",
    "new_trace_id",
    "shard_span_base",
    "merge_spans",
    "read_shards",
    "orphan_spans",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullMetrics",
    "NULL_METRICS",
    "labeled",
    "parse_labeled",
    "TimeSeries",
    "SloObjective",
    "SloStatus",
    "SloTracker",
    "NullSloTracker",
    "NULL_SLO",
    "DEFAULT_OBJECTIVES",
    "start_timer",
    "stop_timer",
    "StructuredFormatter",
    "logging_setup",
]
