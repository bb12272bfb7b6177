"""Run metrics: counters, gauges and histograms aggregated across runs.

Where a trace (:mod:`repro.obs.trace`) answers "where did *this* run
spend its time", the :class:`MetricsRegistry` answers "how is the fleet
doing" -- it accumulates across every run of an
:class:`~repro.framework.session.EtlSession` (and across workflows when
sessions share a registry), in the three classic shapes:

- :class:`Counter` -- monotonically increasing totals (runs, failures,
  retries, catalog hits, statistics tapped);
- :class:`Gauge` -- last-written values (current drift, plan cost,
  catalog size);
- :class:`Histogram` -- bucketed distributions (phase latencies,
  estimation errors), with cumulative buckets in the Prometheus style.

All three support flat string labels (``counter.inc(workflow="wf03")``),
so one registry can serve many workflows.  Export goes two ways:
:meth:`MetricsRegistry.to_dict` for the versioned JSON document and
:meth:`MetricsRegistry.render_prometheus` for the text exposition format
scrape endpoints and ``promtool`` understand.

The registry is thread-safe (blocks execute on scheduler threads) and
deliberately dependency-free.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Iterable

#: version written into exported metrics documents
METRICS_FORMAT_VERSION = 1

#: default latency buckets, in seconds (powers of ~4 from 1ms to 60s)
DEFAULT_BUCKETS = (0.001, 0.005, 0.02, 0.1, 0.5, 2.0, 10.0, 60.0)

LabelKey = tuple[tuple[str, str], ...]


class MetricError(ValueError):
    """Raised for metric misuse (name reuse across types, bad values)."""


def _label_key(labels: dict) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _render_labels(key: LabelKey, extra: tuple[tuple[str, str], ...] = ()) -> str:
    pairs = sorted((*key, *extra))
    if not pairs:
        return ""
    body = ",".join(f'{k}="{v}"' for k, v in pairs)
    return "{" + body + "}"


class Metric:
    """Shared naming/label plumbing for the three metric shapes."""

    type_name = "untyped"

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._lock = threading.Lock()

    def sample_lines(self) -> list[str]:
        """Prometheus exposition lines for every labelled sample."""
        raise NotImplementedError

    def to_dict(self) -> dict:
        raise NotImplementedError


class Counter(Metric):
    """A monotonically increasing total per label set."""

    type_name = "counter"

    def __init__(self, name: str, help: str = ""):
        super().__init__(name, help)
        self._samples: dict[LabelKey, float] = {}

    def inc(self, amount: float = 1.0, **labels) -> None:
        if amount < 0:
            raise MetricError(
                f"counter {self.name} can only increase (got {amount})"
            )
        key = _label_key(labels)
        with self._lock:
            self._samples[key] = self._samples.get(key, 0.0) + amount

    def value(self, **labels) -> float:
        return self._samples.get(_label_key(labels), 0.0)

    @property
    def total(self) -> float:
        """Sum over every label set."""
        return sum(self._samples.values())

    def sample_lines(self) -> list[str]:
        return [
            f"{self.name}{_render_labels(key)} {value:g}"
            for key, value in sorted(self._samples.items())
        ]

    def to_dict(self) -> dict:
        return {
            "type": self.type_name,
            "help": self.help,
            "samples": [
                {"labels": dict(key), "value": value}
                for key, value in sorted(self._samples.items())
            ],
        }


class Gauge(Metric):
    """A last-written value per label set."""

    type_name = "gauge"

    def __init__(self, name: str, help: str = ""):
        super().__init__(name, help)
        self._samples: dict[LabelKey, float] = {}

    def set(self, value: float, **labels) -> None:
        with self._lock:
            self._samples[_label_key(labels)] = float(value)

    def value(self, **labels) -> float:
        return self._samples.get(_label_key(labels), 0.0)

    sample_lines = Counter.sample_lines
    to_dict = Counter.to_dict


class Histogram(Metric):
    """A cumulative-bucket distribution per label set."""

    type_name = "histogram"

    def __init__(self, name: str, help: str = "",
                 buckets: Iterable[float] = DEFAULT_BUCKETS):
        super().__init__(name, help)
        self.buckets = tuple(sorted(float(b) for b in buckets))
        if not self.buckets:
            raise MetricError(f"histogram {self.name} needs at least one bucket")
        # per label set: [per-bucket counts..., +Inf count], sum
        self._counts: dict[LabelKey, list[int]] = {}
        self._sums: dict[LabelKey, float] = {}

    def observe(self, value: float, **labels) -> None:
        key = _label_key(labels)
        idx = bisect_left(self.buckets, float(value))
        with self._lock:
            counts = self._counts.setdefault(key, [0] * (len(self.buckets) + 1))
            counts[idx] += 1
            self._sums[key] = self._sums.get(key, 0.0) + float(value)

    def count(self, **labels) -> int:
        return sum(self._counts.get(_label_key(labels), ()))

    def sum(self, **labels) -> float:
        return self._sums.get(_label_key(labels), 0.0)

    def sample_lines(self) -> list[str]:
        lines: list[str] = []
        for key in sorted(self._counts):
            counts = self._counts[key]
            running = 0
            for bound, n in zip(self.buckets, counts):
                running += n
                lines.append(
                    f"{self.name}_bucket"
                    f"{_render_labels(key, (('le', f'{bound:g}'),))} {running}"
                )
            running += counts[-1]
            lines.append(
                f"{self.name}_bucket{_render_labels(key, (('le', '+Inf'),))} "
                f"{running}"
            )
            lines.append(f"{self.name}_sum{_render_labels(key)} "
                         f"{self._sums[key]:g}")
            lines.append(f"{self.name}_count{_render_labels(key)} {running}")
        return lines

    def to_dict(self) -> dict:
        return {
            "type": self.type_name,
            "help": self.help,
            "buckets": list(self.buckets),
            "samples": [
                {
                    "labels": dict(key),
                    "counts": list(self._counts[key]),
                    "sum": self._sums[key],
                }
                for key in sorted(self._counts)
            ],
        }


class MetricsRegistry:
    """Named metrics, created on first use, exported deterministically."""

    def __init__(self):
        self._metrics: dict[str, Metric] = {}
        self._lock = threading.Lock()

    def _get(self, name: str, factory, expected_type: type) -> Metric:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = self._metrics[name] = factory()
            elif not isinstance(metric, expected_type):
                raise MetricError(
                    f"metric {name!r} already registered as "
                    f"{metric.type_name}, not {expected_type.type_name}"
                )
            return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get(name, lambda: Counter(name, help), Counter)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get(name, lambda: Gauge(name, help), Gauge)

    def histogram(self, name: str, help: str = "",
                  buckets: Iterable[float] = DEFAULT_BUCKETS) -> Histogram:
        return self._get(name, lambda: Histogram(name, help, buckets), Histogram)

    # ------------------------------------------------------------------
    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __iter__(self):
        return iter(sorted(self._metrics.values(), key=lambda m: m.name))

    def __len__(self) -> int:
        return len(self._metrics)

    def get(self, name: str) -> Metric | None:
        return self._metrics.get(name)

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """The versioned JSON metrics document."""
        return {
            "format_version": METRICS_FORMAT_VERSION,
            "kind": "metrics",
            "metrics": {m.name: m.to_dict() for m in self},
        }

    def render_prometheus(self) -> str:
        """The Prometheus text exposition format (0.0.4), sorted by name."""
        lines: list[str] = []
        for metric in self:
            if metric.help:
                lines.append(f"# HELP {metric.name} {metric.help}")
            lines.append(f"# TYPE {metric.name} {metric.type_name}")
            lines.extend(metric.sample_lines())
        return "\n".join(lines) + ("\n" if lines else "")


__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "METRICS_FORMAT_VERSION",
    "MetricError",
    "Metric",
    "MetricsRegistry",
]
