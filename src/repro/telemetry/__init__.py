"""Runtime observability: tracing spans and a metrics registry.

The paper accounts for the accelerator phase by phase -- step-1 stripe
streaming, the DRAM round trip, the step-2 merge -- so the runtime
carries the same accounting:

* **Spans** (:mod:`repro.telemetry.spans`) -- one nested, timed span per
  phase (``spmv.run`` > ``plan.build`` / ``step1`` / ``step2`` >
  ``step2.merge``), scoped through a ContextVar session.  Per-stripe
  counts are attributes of the phase spans.
* **Metrics** (:mod:`repro.telemetry.metrics`) -- typed counters /
  gauges / histograms (records merged, bytes per stream, plan-cache
  hits, shard imbalance, VLDI bits per index) with Prometheus-text and
  JSON export.
* **Export** (:mod:`repro.telemetry.export`) -- the Chrome
  ``trace_event`` form of a run's spans and its schema check.

The contract, enforced by ``tests/test_telemetry.py``: telemetry never
changes results.  Result vectors are bit-identical and traffic ledgers
byte-identical with telemetry on vs. off, on every backend; disabled,
every record helper is a single ContextVar read.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.telemetry.export import (
    chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.telemetry.metrics import MetricsRegistry, SeriesHandle
from repro.telemetry.session import (
    TelemetrySession,
    current_session,
    metric_inc,
    metric_record,
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
    "MetricsRegistry",
    "SeriesHandle",
    "Span",
    "TelemetryReport",
    "TelemetrySession",
    "Tracer",
    "chrome_trace",
    "combine_reports",
    "current_session",
    "metric_inc",
    "metric_record",
    "span",
    "telemetry_scope",
    "telemetry_session",
    "validate_chrome_trace",
    "write_chrome_trace",
]
