"""Observability for the reproduction: metrics, traces, slow queries, run manifests.

The package is deliberately zero-dependency and cheap-by-default:

* :mod:`repro.obs.metrics` — thread-safe counters, gauges and log-bucketed
  latency histograms with exact-to-one-bucket percentiles, plus a
  :class:`~repro.obs.metrics.MetricsRegistry` that renders Prometheus text
  exposition format (the ``GET /metrics`` endpoint);
* :mod:`repro.obs.trace` — a contextvar-carried span API
  (``with trace.span("decode"):``) that builds one nested span tree per
  query, shard fan-out included, with aggregate *stages* for hot-loop
  instrumentation points (v-byte decode, buffer-pool fetches, intersections).
  Everything no-ops when tracing is disabled (the default), so the
  benchmarked page counts and timings are unaffected;
* :mod:`repro.obs.slowlog` — a ring-buffered, threshold-triggered slow-query
  log with an optional JSONL sink (``serve --slow-query-ms``);
* :mod:`repro.obs.runmeta` — per-run benchmark artifacts: a validated
  ``manifest.json`` (scale, seed, git revision, config) next to a
  ``metrics.jsonl`` stream, so perf trajectories are machine-readable
  across PRs.
"""

from __future__ import annotations

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.slowlog import SlowQueryLog
from repro.obs.runmeta import RunRecorder, validate_manifest

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "RunRecorder",
    "SlowQueryLog",
    "validate_manifest",
]
