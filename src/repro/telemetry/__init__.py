"""Runtime observability: tracing spans, metrics registry, profiling hooks.

The paper's whole evaluation is per-phase accounting -- step-1 stripe
streaming vs. step-2 merge traffic, PRaP shard balance, VLDI compression
ratios -- so the runtime carries a first-class telemetry layer:

* **Spans** (:mod:`repro.telemetry.spans`) -- nested, timed trace spans
  (``spmv.run`` > ``plan.build`` / ``step1.stripe[k]`` /
  ``step2.merge`` / ``inject`` / ``inject.class[r]``), scoped
  through a ContextVar session.
* **Metrics** (:mod:`repro.telemetry.metrics`) -- typed counters /
  gauges / histograms (records merged, keys injected, bytes per stream,
  plan-cache hits, shard imbalance, VLDI bits per index) with
  Prometheus-text and JSON export.
* **Hooks** (:mod:`repro.telemetry.hooks`) -- a callback protocol so
  benchmarks and external collectors observe spans/metrics live without
  patching engine internals.

The contract, enforced by ``tests/test_telemetry.py``: telemetry never
changes results.  Result vectors are bit-identical and traffic ledgers
byte-identical with telemetry on vs. off, on every backend; disabled,
every record helper is a single ContextVar read.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.telemetry.export import (
    chrome_trace,
    prometheus_text,
    spans_to_jsonl,
    validate_chrome_trace,
    write_chrome_trace,
    write_jsonl,
    write_prometheus,
)
from repro.telemetry.hooks import CallbackHook, NullHook, TelemetryHook
from repro.telemetry.metrics import MetricsRegistry, SeriesHandle
from repro.telemetry.session import (
    TelemetrySession,
    add_global_hook,
    annotate_span,
    current_session,
    global_hooks,
    metric_inc,
    metric_observe,
    metric_record,
    metric_set,
    remove_global_hook,
    span,
    telemetry_scope,
    telemetry_session,
)
from repro.telemetry.spans import Span, Tracer


@dataclass
class TelemetryReport:
    """Frozen telemetry of one engine execution.

    Attributes:
        spans: Completed spans (children precede parents).
        metrics: The run's metrics registry snapshot.
    """

    spans: list = field(default_factory=list)
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)

    def roots(self) -> list:
        """Spans with no parent (one per engine entry point)."""
        return [s for s in self.spans if s.parent_id is None]

    def find(self, name: str) -> list:
        """Spans named exactly ``name``."""
        return [s for s in self.spans if s.name == name]

    def span_names(self) -> tuple:
        """Distinct span names, sorted."""
        return tuple(sorted({s.name for s in self.spans}))

    def to_chrome_trace(self) -> dict:
        """Chrome ``trace_event`` object for this run's spans."""
        return chrome_trace(self.spans)

    def to_jsonl(self) -> str:
        """JSON-lines form of this run's spans."""
        return spans_to_jsonl(self.spans)

    def metrics_text(self) -> str:
        """Prometheus text exposition of this run's metrics."""
        return self.metrics.to_prometheus()

    def to_dict(self) -> dict:
        """JSON-native form: span records plus the metrics snapshot."""
        return {
            "spans": [s.to_record() for s in self.spans],
            "metrics": self.metrics.to_dict(),
        }


def combine_reports(reports) -> TelemetryReport:
    """Merge per-iteration reports into one roll-up.

    Spans concatenate (each iteration keeps its own root); counters and
    histograms add, gauges keep the last iteration's value.  None entries
    (iterations run with telemetry disabled) are skipped.
    """
    merged = TelemetryReport()
    for report in reports:
        if report is None:
            continue
        merged.spans.extend(report.spans)
        merged.metrics.merge(report.metrics)
    return merged


__all__ = [
    "CallbackHook",
    "MetricsRegistry",
    "NullHook",
    "SeriesHandle",
    "Span",
    "TelemetryHook",
    "TelemetryReport",
    "TelemetrySession",
    "Tracer",
    "add_global_hook",
    "annotate_span",
    "chrome_trace",
    "combine_reports",
    "current_session",
    "global_hooks",
    "metric_inc",
    "metric_observe",
    "metric_record",
    "metric_set",
    "prometheus_text",
    "remove_global_hook",
    "span",
    "spans_to_jsonl",
    "telemetry_scope",
    "telemetry_session",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
    "write_prometheus",
]
