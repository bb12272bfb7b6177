"""Observability: structured run tracing and cross-run metrics.

The missing layer after PRs 1-3: the parallel backends, the fault-
tolerant scheduler and the shared statistics catalog all make decisions
mid-run (plan choice, retries, zero-cost catalog hits) that were
previously visible only as stdout prose.  This package records them as
data:

- :class:`~repro.obs.trace.Tracer` / :class:`~repro.obs.trace.Span` --
  one span tree per run (phases, blocks, operators, taps, failures);
- :class:`~repro.obs.metrics.MetricsRegistry` -- counters, gauges and
  histograms aggregated across the runs of a session;
- :mod:`repro.obs.export` -- atomic JSON and Prometheus-text artifacts
  with the repository's ``format_version`` conventions;
- :mod:`repro.obs.render` -- the ``repro-etl trace show`` rendering
  (span tree, slowest blocks, worst estimation errors);
- :func:`~repro.obs.record.record_run_metrics` -- the standard series
  recorded from every :class:`~repro.framework.pipeline.PipelineReport`.

Tracing is opt-in: every hook takes ``tracer=None``, ``None`` is the
only off switch, and hot paths guard on it.  A span parents under its
thread's current span; the pipeline times each phase once, into
``PipelineReport.timings`` and, traced, its phase span.
"""

from repro.obs.export import (
    TraceDocument,
    load_trace,
    trace_to_dict,
    write_metrics,
    write_metrics_json,
    write_metrics_prometheus,
    write_trace,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
)
from repro.obs.record import record_run_metrics
from repro.obs.render import estimation_errors, render_trace, render_tree, slowest
from repro.obs.trace import Span, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricError",
    "MetricsRegistry",
    "Span",
    "TraceDocument",
    "Tracer",
    "estimation_errors",
    "load_trace",
    "record_run_metrics",
    "render_trace",
    "render_tree",
    "slowest",
    "trace_to_dict",
    "write_metrics",
    "write_metrics_json",
    "write_metrics_prometheus",
    "write_trace",
]
