"""Typed metrics registry: counters, gauges, histograms.

One :class:`MetricsRegistry` holds every metric of one scope -- a single
engine execution (snapshot surfaced on ``SpMVResult.telemetry``) or an
engine lifetime (``engine.metrics()``).  Metrics are keyed by a
Prometheus-style name plus a frozen label set; recording is
thread-safe (one registry lock) so concurrent engine runs -- serving
executor threads sharing one lifetime registry -- can account work
concurrently.

A publisher that records the same series on every run (the engine's
per-run metrics) resolves each one once into a :class:`SeriesHandle`
and records through :meth:`MetricsRegistry.record`, which skips the
per-call label sorting; :meth:`MetricsRegistry.merge` folds one registry
into another in place, without copying it first.

Exports: :meth:`MetricsRegistry.to_prometheus` renders the standard
text exposition format (``# HELP`` / ``# TYPE`` then samples);
:meth:`MetricsRegistry.to_dict` is the JSON-native form benchmarks and
the CLI archive.
"""

from __future__ import annotations

import threading
from collections.abc import Sequence
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


class SeriesHandle:
    """One metric series resolved once: name, kind, help and label key.

    ``inc`` / ``set`` / ``observe`` sort and stringify their labels on
    every call.  :meth:`MetricsRegistry.record` takes a handle instead,
    so recording costs one dictionary lookup in the target registry.
    A handle belongs to no registry: one handle records into any number
    of them.
    """

    __slots__ = ("name", "kind", "help", "key", "series_id")

    def __init__(
        self, name: str, kind: str, labels: dict | None = None, help: str = ""
    ):
        if kind not in METRIC_KINDS:
            raise ValueError(f"unknown metric kind {kind!r}")
        if not name or not (name[0].isalpha() or name[0] == "_"):
            raise ValueError(f"invalid metric name {name!r}")
        self.name = name
        self.kind = kind
        self.help = help
        self.key = _label_key(labels)
        self.series_id = (name, self.key)

    def __repr__(self) -> str:
        return f"<SeriesHandle {self.name}{_format_labels(self.key)} {self.kind}>"


class MetricsRegistry:
    """A mutable, thread-safe collection of typed metrics."""

    def __init__(self):
        self._lock = threading.Lock()
        self._metrics: dict[str, Metric] = {}
        # Samples recorded by handle and not yet applied, in order: a
        # per-run registry is usually folded and dropped unread, so its
        # series are only built when something reads or writes it by name.
        self._pending: list = []

    def _metric(self, name: str, kind: str, help: str) -> Metric:
        metric = self._metrics.get(name)
        if metric is None:
            if not name or not (name[0].isalpha() or name[0] == "_"):
                raise ValueError(f"invalid metric name {name!r}")
            metric = Metric(name, kind, help)
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
        self._record(name, "counter", help, _label_key(labels), amount)

    def set(
        self, name: str, value: float, labels: dict | None = None, help: str = ""
    ) -> None:
        """Set a gauge series to ``value``."""
        self._record(name, "gauge", help, _label_key(labels), value)

    def observe(
        self, name: str, value: float, labels: dict | None = None, help: str = ""
    ) -> None:
        """Record one observation into a histogram series."""
        self._record(name, "histogram", help, _label_key(labels), value)

    def record(self, handle: SeriesHandle, value: float) -> None:
        """Record ``value`` into a resolved series, by the handle's kind.

        Ends in the same state as ``inc`` (counter), ``set`` (gauge) or
        ``observe`` (histogram) with the handle's name, labels and help;
        the sample is queued, as in :meth:`record_all`.
        """
        self.record_all(((handle, value),))

    def record_all(self, samples: Sequence[tuple[SeriesHandle, float]]) -> None:
        """Record a sequence of ``(handle, value)`` pairs, in order.

        The samples are queued and applied, in order, before the next
        read, by-name write or merge of this registry, so a registry
        that is only folded into another never builds its own series.
        A sample whose kind clashes with the metric registered under its
        name is dropped then, and that read, write or merge raises
        ``ValueError``.
        """
        for handle, value in samples:
            if handle.kind == "counter" and value < 0:
                raise ValueError("counters can only increase")
        with self._lock:
            self._pending.extend(samples)

    def _record(self, name: str, kind: str, help: str, key: tuple, value) -> None:
        with self._lock:
            self._settle()
            self._apply(name, kind, help, key, value)

    def _settle(self) -> None:
        """Apply the queued handle samples; the caller holds the lock.

        A sample whose kind clashes with its metric is dropped; the rest
        are applied and the first clash is raised afterwards.
        """
        pending = self._pending
        if pending:
            self._pending = []
            clash = None
            for handle, value in pending:
                try:
                    self._apply(
                        handle.name, handle.kind, handle.help, handle.key, value
                    )
                except ValueError as err:
                    clash = clash or err
            if clash is not None:
                raise clash

    def _apply(self, name: str, kind: str, help: str, key: tuple, value) -> None:
        """Update one series; the caller holds the lock."""
        metric = self._metrics.get(name)
        if metric is None or metric.kind != kind or (help and not metric.help):
            metric = self._metric(name, kind, help)
        if kind == "counter":
            metric.values[key] = metric.values.get(key, 0.0) + value
        elif kind == "gauge":
            metric.values[key] = float(value)
        else:
            counts = metric.bucket_counts.setdefault(key, [0] * len(metric.buckets))
            for slot, bound in enumerate(metric.buckets):
                if value <= bound:
                    counts[slot] += 1
                    break
            metric.sums[key] = metric.sums.get(key, 0.0) + float(value)
            metric.counts[key] = metric.counts.get(key, 0) + 1

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def value(self, name: str, labels: dict | None = None) -> float:
        """Current value of one counter/gauge series (0.0 when absent)."""
        key = _label_key(labels)
        with self._lock:
            self._settle()
            metric = self._metrics.get(name)
            if metric is None:
                return 0.0
            if metric.kind == "histogram":
                return float(metric.sums.get(key, 0.0))
            return float(metric.values.get(key, 0.0))

    def total(self, name: str) -> float:
        """Sum of one metric's series across every label set."""
        with self._lock:
            self._settle()
            metric = self._metrics.get(name)
            if metric is None:
                return 0.0
            if metric.kind == "histogram":
                return float(sum(metric.sums.values()))
            return float(sum(metric.values.values()))

    def series(self, name: str) -> dict:
        """Label-set -> value map for one counter/gauge (copy)."""
        with self._lock:
            self._settle()
            metric = self._metrics.get(name)
            if metric is None or metric.kind == "histogram":
                return {}
            return dict(metric.values)

    def names(self) -> tuple:
        """Registered metric names, sorted."""
        with self._lock:
            self._settle()
            return tuple(sorted(self._metrics))

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold ``other`` into this registry (counters/histograms add,
        gauges take the other's latest value).

        Both locks are held while folding, taken in ``id`` order so two
        registries merging into each other cannot deadlock; nothing is
        copied first.  When ``other`` holds only queued handle samples,
        one per series (a per-run registry), they are applied here
        directly and ``other`` never builds its own series: adding each
        sample once is the same as adding their per-series total.
        """
        if other is self:
            with self._lock:
                self._settle()
                self._fold(other)
            return
        first, second = (self, other) if id(self) < id(other) else (other, self)
        with first._lock, second._lock:
            self._settle()
            pending = other._pending
            if (
                pending
                and not other._metrics
                and len({handle.series_id for handle, _ in pending}) == len(pending)
            ):
                for handle, value in pending:
                    self._apply(
                        handle.name, handle.kind, handle.help, handle.key, value
                    )
            else:
                other._settle()
                self._fold(other)

    def _fold(self, other: "MetricsRegistry") -> None:
        for name, theirs in other._metrics.items():
            metric = self._metric(name, theirs.kind, theirs.help)
            if theirs.kind == "counter":
                values = metric.values
                for key, val in theirs.values.items():
                    values[key] = values.get(key, 0.0) + val
            elif theirs.kind == "gauge":
                metric.values.update(theirs.values)
            else:
                metric.buckets = theirs.buckets
                for key, row in theirs.bucket_counts.items():
                    mine = metric.bucket_counts.setdefault(key, [0] * len(row))
                    for slot, n in enumerate(row):
                        mine[slot] += n
                for key, val in theirs.sums.items():
                    metric.sums[key] = metric.sums.get(key, 0.0) + val
                for key, val in theirs.counts.items():
                    metric.counts[key] = metric.counts.get(key, 0) + val

    # ------------------------------------------------------------------
    # Exports
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-native snapshot: name -> {kind, help, series}."""
        out = {}
        with self._lock:
            self._settle()
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
            self._settle()
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
        with self._lock:
            self._settle()
            return f"<MetricsRegistry metrics={len(self._metrics)}>"


def _fmt(value: float) -> str:
    """Render a sample value without exponent-free float noise."""
    as_float = float(value)
    if as_float == int(as_float) and abs(as_float) < 1e15:
        return str(int(as_float))
    return repr(as_float)


__all__ = [
    "DEFAULT_BUCKETS",
    "METRIC_KINDS",
    "Metric",
    "MetricsRegistry",
    "SeriesHandle",
]
