"""Headless reporting: ASCII plots, markdown experiment reports, span trees."""

from repro.reporting.ascii_plot import heatmap, sparkline
from repro.reporting.experiment_report import load_results, render_markdown
from repro.reporting.span_tree import (
    critical_path,
    render_span_tree,
    summarize_spans,
)

__all__ = [
    "heatmap",
    "sparkline",
    "load_results",
    "render_markdown",
    "critical_path",
    "render_span_tree",
    "summarize_spans",
]
