"""End-to-end observability: metrics, traces, and their exposition.

The package has three layers:

* :mod:`repro.telemetry.registry` — dependency-free instruments
  (:class:`Counter`, :class:`Gauge`, :class:`Histogram`) owned by a
  :class:`MetricsRegistry` that snapshots and renders them in the
  Prometheus text format.
* :mod:`repro.telemetry.trace` — :func:`mint_trace_id` and
  :class:`Tracer`: per-submission trace IDs propagated router → shard
  → merge → reply (and over the wire in the protocol v2 header), with
  a bounded slow-op log of per-stage breakdowns.
* :mod:`repro.telemetry.runtime` — :class:`Telemetry`, the hub
  bundling one registry with one tracer, plus the process-global
  :func:`install`/:func:`active`/:func:`uninstall` hook that lets
  pre-existing hot paths observe without API churn.

See ``docs/observability.md`` for the metric catalogue and trace
semantics.
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(globals(), {
    ".registry": (
        "DEFAULT_LATENCY_BUCKETS",
        "Counter",
        "Gauge",
        "Histogram",
        "MetricsRegistry",
    ),
    ".runtime": ("Telemetry", "active", "install", "uninstall"),
    ".trace": ("Tracer", "mint_trace_id"),
})
