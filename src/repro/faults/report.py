"""Structured fault accounting for one engine execution.

The engine opens a :func:`collect_faults` scope around every ``run`` /
``run_many`` / ``spgemm``; instrumented code records what happened
through :func:`record_event`, and the finished :class:`FaultReport`
rides out on :class:`~repro.api.SpMVResult.faults`.  Recording is a
no-op when no scope is active, so the hot path pays nothing in the
common case.

The active report is held in a :class:`contextvars.ContextVar`, so the
scope is visible to everything running in the engine's calling thread.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field

from repro.telemetry.session import annotate_span, metric_inc


@dataclass
class FaultEvent:
    """One recorded fault.

    Attributes:
        site: Instrumented site label (e.g. ``"registry.io"``).
        index: Index within the site; -1 for site-wide events.
        action: What happened (e.g. ``"error"``).
        detail: Human-readable diagnosis (exception summary, fault kind).
        attempts: Attempts made when the event fired.
    """

    site: str
    index: int
    action: str
    detail: str = ""
    attempts: int = 0


@dataclass
class FaultReport:
    """What the engine observed about one execution's robustness.

    Attributes:
        validated: True when input hardening ran for this execution.
        strict_validate: True when the deep (full-scan) checks ran.
        events: Ordered :class:`FaultEvent` log.
        elapsed_s: Wall-clock seconds of the execution.
    """

    validated: bool = False
    strict_validate: bool = False
    events: list[FaultEvent] = field(default_factory=list)
    elapsed_s: float = 0.0

    @property
    def clean(self) -> bool:
        """True when the execution saw no fault of any kind."""
        return not self.events

    def record(
        self,
        site: str,
        index: int,
        action: str,
        detail: str = "",
        attempts: int = 0,
    ) -> FaultEvent:
        """Append one event."""
        event = FaultEvent(site=site, index=index, action=action, detail=detail, attempts=attempts)
        self.events.append(event)
        return event

    def to_dict(self) -> dict:
        """JSON-ready form for logging and benchmark output."""
        return {
            "validated": self.validated,
            "strict_validate": self.strict_validate,
            "elapsed_s": self.elapsed_s,
            "events": [
                {
                    "site": e.site,
                    "index": e.index,
                    "action": e.action,
                    "detail": e.detail,
                    "attempts": e.attempts,
                }
                for e in self.events
            ],
        }

    def by_site(self) -> dict:
        """Events grouped by ``(site, index)``, order preserved twice over.

        Group keys appear in first-occurrence order and each group's
        events keep their recording order, so two faults sharing a
        ``(site, index)`` key are never collapsed or reordered.

        Returns:
            ``{(site, index): [FaultEvent, ...]}``.
        """
        grouped: dict = {}
        for event in self.events:
            grouped.setdefault((event.site, event.index), []).append(event)
        return grouped

    def summary(self) -> str:
        """One-line human summary: event counts by action (CLI output)."""
        if self.clean:
            return "clean"
        counts = Counter(event.action for event in self.events)
        return ", ".join(f"{n} {action}" for action, n in counts.items())


_ACTIVE: ContextVar[FaultReport | None] = ContextVar("repro_fault_report", default=None)


def current_report() -> FaultReport | None:
    """The report collecting events in this context, or None."""
    return _ACTIVE.get()


def record_event(
    site: str, index: int, action: str, detail: str = "", attempts: int = 0
) -> None:
    """Record an event on the active report; silently a no-op without one.

    When a telemetry session is also active, the event is mirrored there:
    the innermost open span gains a ``fault.<action>`` annotation and the
    ``spmv_fault_events_total`` counter ticks, so traces and metrics show
    fault activity without consulting the fault report.
    """
    report = _ACTIVE.get()
    if report is not None:
        report.record(site, index, action, detail=detail, attempts=attempts)
    annotate_span(f"fault.{action}", f"{site}[{index}] {detail}".strip())
    metric_inc(
        "spmv_fault_events_total",
        labels={"site": site, "action": action},
        help="Fault events, by site and action",
    )


@contextmanager
def collect_faults(report: FaultReport | None = None):
    """Scope within which fault events accumulate on ``report``."""
    report = report if report is not None else FaultReport()
    token = _ACTIVE.set(report)
    try:
        yield report
    finally:
        _ACTIVE.reset(token)


__all__ = [
    "FaultEvent",
    "FaultReport",
    "collect_faults",
    "current_report",
    "record_event",
]
