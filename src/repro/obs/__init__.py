"""Observability: metrics, tracing and exporters for the REF service.

A dependency-free (stdlib + nothing) telemetry layer shared by every
hot path in the reproduction:

* :class:`MetricsRegistry` — named counters, gauges and histograms
  (fixed Prometheus-style buckets, which also give quantile estimates),
  with labels, JSON round-trips and registry merging;
  producers declare a :class:`Series` per family and touch it through
  ``registry.child(series, *label_values)``, which holds each child;
* :class:`Tracer` / :func:`timed` — ``with``-block tracing producing
  hierarchical :class:`SpanRecord` trees and latency histograms;
* :mod:`repro.obs.export` — JSON and Prometheus text-format exporters
  (plus a strict text-format parser used by tests and CI).

Producers either accept an explicit registry (``OfflineProfiler``,
``OnlineProfiler``, ``DynamicAllocator``) or fall back to the
process-global registry (:func:`global_registry`) when none can be
threaded through, as in :func:`repro.optimize.logspace.solve`.

Metric families are namespaced by layer: ``repro_profiler_*`` /
``repro_controller_*`` for the library, ``repro_serve_*`` for the HTTP
service, and ``repro_shard_*`` for the multi-cell coordinator
(:mod:`repro.serve.shard`) — live-cell count (``repro_shard_cells``),
per-cell capacity-grant latency
(``repro_shard_grant_latency_seconds``), grant rounds, and the
rebalance/rehash counters that track recovery from cell death.  In a
sharded deployment each cell worker exposes its own ``repro_serve_*``
families on its own ``/metrics`` port (discoverable via the
coordinator's ``GET /v1/cells``); the coordinator does not aggregate
them, matching the one-scrape-target-per-process Prometheus model.

See ``docs/observability.md`` for the metric catalogue and span
semantics.
"""

from .export import (
    parse_prometheus_text,
    render_table,
    to_json,
    to_prometheus,
    write_json,
)
from .registry import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Series,
    global_registry,
    set_global_registry,
)
from .spans import SpanRecord, Tracer, timed

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Series",
    "SpanRecord",
    "Tracer",
    "global_registry",
    "parse_prometheus_text",
    "render_table",
    "set_global_registry",
    "timed",
    "to_json",
    "to_prometheus",
    "write_json",
]
