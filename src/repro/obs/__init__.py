"""Unified observability layer: metrics registry, tracing, and dashboards.

* :mod:`repro.obs.metrics` — labeled Counter/Gauge/Histogram families in a
  :class:`MetricsRegistry`; picklable :class:`MetricsSnapshot` values that
  merge across processes and render Prometheus text.
* :mod:`repro.obs.trace` — per-request trace IDs, span timing with a JSONL
  sink and deterministic sampling (see the span taxonomy in its docstring).
* :mod:`repro.obs.top` — the ``repro top`` live terminal dashboard.
"""

from .metrics import (
    DEFAULT_TIME_BUCKETS,
    SNAPSHOT_RING_LIMIT,
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
    MetricsSnapshot,
    aggregate_histogram,
    histogram_percentile,
    latency_summary,
    merge_snapshots,
    peak_rss_bytes,
)
from .trace import (
    TRACE_HEADER,
    TraceSink,
    configure_tracing,
    current_trace_id,
    get_sink,
    new_trace_id,
    read_trace_file,
    span,
    trace_config,
    trace_context,
    tracing_enabled,
)
from .top import fetch_stats, render_dashboard, run_top

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "MetricsSnapshot",
    "merge_snapshots",
    "aggregate_histogram",
    "histogram_percentile",
    "latency_summary",
    "peak_rss_bytes",
    "DEFAULT_TIME_BUCKETS",
    "SNAPSHOT_RING_LIMIT",
    "TRACE_HEADER",
    "TraceSink",
    "configure_tracing",
    "current_trace_id",
    "get_sink",
    "new_trace_id",
    "read_trace_file",
    "span",
    "trace_config",
    "trace_context",
    "tracing_enabled",
    "render_dashboard",
    "fetch_stats",
    "run_top",
]
