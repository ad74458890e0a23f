"""Typed metrics registry: counters, gauges, histograms.

One :class:`MetricsRegistry` holds every metric of one scope -- a single
engine execution (snapshot surfaced on ``SpMVResult.telemetry``) or an
engine lifetime (``engine.metrics()``).  Metrics are keyed by a
Prometheus-style name plus a frozen label set; recording is
thread-safe (one registry lock) so concurrent engine runs -- serving
executor threads sharing one lifetime registry -- can account work
concurrently.

Exports: :meth:`MetricsRegistry.to_prometheus` renders the standard
text exposition format (``# HELP`` / ``# TYPE`` then samples);
:meth:`MetricsRegistry.to_dict` is the JSON-native form benchmarks and
the CLI archive.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

#: Recognized metric kinds.
METRIC_KINDS = ("counter", "gauge", "histogram")

#: Default histogram bucket upper bounds (seconds-flavoured powers of 10).
DEFAULT_BUCKETS = (1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0)


def _label_key(labels: dict | None) -> tuple:
    """Canonical, hashable form of a label set."""
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _format_labels(key: tuple) -> str:
    if not key:
        return ""
    body = ",".join(f'{k}="{v}"' for k, v in key)
    return "{" + body + "}"


@dataclass
class Metric:
    """One named metric and all of its labelled series.

    Attributes:
        name: Prometheus-style metric name (``[a-zA-Z_][a-zA-Z0-9_]*``).
        kind: ``"counter"``, ``"gauge"`` or ``"histogram"``.
        help: One-line description rendered as ``# HELP``.
        values: Label-set -> current value (counters and gauges).
        buckets: Histogram bucket upper bounds.
        bucket_counts: Label-set -> per-bucket observation counts
            (cumulative at render time, raw per-bucket here).
        sums: Label-set -> sum of observed values (histograms).
        counts: Label-set -> number of observations (histograms).
    """

    name: str
    kind: str
    help: str = ""
    values: dict = field(default_factory=dict)
    buckets: tuple = DEFAULT_BUCKETS
    bucket_counts: dict = field(default_factory=dict)
    sums: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)


class MetricsRegistry:
    """A mutable, thread-safe collection of typed metrics."""

    def __init__(self, hooks: tuple = ()):  # hooks: TelemetryHook objects
        self.hooks = tuple(hooks)
        self._lock = threading.Lock()
        self._metrics: dict[str, Metric] = {}

    def _metric(self, name: str, kind: str, help: str) -> Metric:
        metric = self._metrics.get(name)
        if metric is None:
            if not name or not (name[0].isalpha() or name[0] == "_"):
                raise ValueError(f"invalid metric name {name!r}")
            metric = Metric(name=name, kind=kind, help=help)
            self._metrics[name] = metric
        elif metric.kind != kind:
            raise ValueError(
                f"metric {name!r} already registered as {metric.kind}, not {kind}"
            )
        if help and not metric.help:
            metric.help = help
        return metric

    def inc(
        self, name: str, amount: float = 1.0, labels: dict | None = None, help: str = ""
    ) -> None:
        """Add ``amount`` (>= 0) to a counter series."""
        if amount < 0:
            raise ValueError("counters can only increase")
        key = _label_key(labels)
        with self._lock:
            metric = self._metric(name, "counter", help)
            metric.values[key] = metric.values.get(key, 0.0) + amount
        self._notify(name, "counter", amount, labels)

    def set(
        self, name: str, value: float, labels: dict | None = None, help: str = ""
    ) -> None:
        """Set a gauge series to ``value``."""
        key = _label_key(labels)
        with self._lock:
            metric = self._metric(name, "gauge", help)
            metric.values[key] = float(value)
        self._notify(name, "gauge", value, labels)

    def observe(
        self, name: str, value: float, labels: dict | None = None, help: str = ""
    ) -> None:
        """Record one observation into a histogram series."""
        key = _label_key(labels)
        with self._lock:
            metric = self._metric(name, "histogram", help)
            counts = metric.bucket_counts.setdefault(key, [0] * len(metric.buckets))
            for slot, bound in enumerate(metric.buckets):
                if value <= bound:
                    counts[slot] += 1
                    break
            metric.sums[key] = metric.sums.get(key, 0.0) + float(value)
            metric.counts[key] = metric.counts.get(key, 0) + 1
        self._notify(name, "histogram", value, labels)

    def _notify(self, name, kind, value, labels) -> None:
        for hook in self.hooks:
            hook.on_metric(name, kind, value, labels or {})

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def value(self, name: str, labels: dict | None = None) -> float:
        """Current value of one counter/gauge series (0.0 when absent)."""
        key = _label_key(labels)
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                return 0.0
            if metric.kind == "histogram":
                return float(metric.sums.get(key, 0.0))
            return float(metric.values.get(key, 0.0))

    def total(self, name: str) -> float:
        """Sum of one metric's series across every label set."""
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                return 0.0
            if metric.kind == "histogram":
                return float(sum(metric.sums.values()))
            return float(sum(metric.values.values()))

    def series(self, name: str) -> dict:
        """Label-set -> value map for one counter/gauge (copy)."""
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None or metric.kind == "histogram":
                return {}
            return dict(metric.values)

    def names(self) -> tuple:
        """Registered metric names, sorted."""
        with self._lock:
            return tuple(sorted(self._metrics))

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold ``other`` into this registry (counters/histograms add,
        gauges take the other's latest value)."""
        with other._lock:
            snapshot = {
                name: (
                    m.kind,
                    m.help,
                    dict(m.values),
                    m.buckets,
                    {k: list(v) for k, v in m.bucket_counts.items()},
                    dict(m.sums),
                    dict(m.counts),
                )
                for name, m in other._metrics.items()
            }
        with self._lock:
            for name, (kind, help, values, buckets, bcounts, sums, counts) in snapshot.items():
                metric = self._metric(name, kind, help)
                if kind == "counter":
                    for key, val in values.items():
                        metric.values[key] = metric.values.get(key, 0.0) + val
                elif kind == "gauge":
                    metric.values.update(values)
                else:
                    metric.buckets = buckets
                    for key, row in bcounts.items():
                        mine = metric.bucket_counts.setdefault(key, [0] * len(buckets))
                        for slot, n in enumerate(row):
                            mine[slot] += n
                    for key, val in sums.items():
                        metric.sums[key] = metric.sums.get(key, 0.0) + val
                    for key, val in counts.items():
                        metric.counts[key] = metric.counts.get(key, 0) + val

    # ------------------------------------------------------------------
    # Exports
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-native snapshot: name -> {kind, help, series}."""
        out = {}
        with self._lock:
            for name in sorted(self._metrics):
                metric = self._metrics[name]
                if metric.kind == "histogram":
                    series = {
                        _format_labels(key) or "{}": {
                            "sum": metric.sums.get(key, 0.0),
                            "count": metric.counts.get(key, 0),
                            "buckets": dict(
                                zip((str(b) for b in metric.buckets), row)
                            ),
                        }
                        for key, row in metric.bucket_counts.items()
                    }
                else:
                    series = {
                        _format_labels(key) or "{}": value
                        for key, value in metric.values.items()
                    }
                out[name] = {"kind": metric.kind, "help": metric.help, "series": series}
        return out

    def to_prometheus(self) -> str:
        """Standard Prometheus text exposition of every metric."""
        lines = []
        with self._lock:
            for name in sorted(self._metrics):
                metric = self._metrics[name]
                lines.append(f"# HELP {name} {metric.help or name}")
                lines.append(f"# TYPE {name} {metric.kind}")
                if metric.kind == "histogram":
                    for key in sorted(metric.bucket_counts):
                        cumulative = 0
                        for bound, count in zip(
                            metric.buckets, metric.bucket_counts[key]
                        ):
                            cumulative += count
                            bucket_key = key + (("le", _fmt(bound)),)
                            lines.append(
                                f"{name}_bucket{_format_labels(bucket_key)} {cumulative}"
                            )
                        inf_key = key + (("le", "+Inf"),)
                        lines.append(
                            f"{name}_bucket{_format_labels(inf_key)} "
                            f"{metric.counts.get(key, 0)}"
                        )
                        lines.append(
                            f"{name}_sum{_format_labels(key)} {_fmt(metric.sums.get(key, 0.0))}"
                        )
                        lines.append(
                            f"{name}_count{_format_labels(key)} {metric.counts.get(key, 0)}"
                        )
                else:
                    for key in sorted(metric.values):
                        lines.append(
                            f"{name}{_format_labels(key)} {_fmt(metric.values[key])}"
                        )
        return "\n".join(lines) + "\n"

    def __repr__(self) -> str:
        return f"<MetricsRegistry metrics={len(self._metrics)}>"


def _fmt(value: float) -> str:
    """Render a sample value without exponent-free float noise."""
    as_float = float(value)
    if as_float == int(as_float) and abs(as_float) < 1e15:
        return str(int(as_float))
    return repr(as_float)


__all__ = ["DEFAULT_BUCKETS", "METRIC_KINDS", "Metric", "MetricsRegistry"]
