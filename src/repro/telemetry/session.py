"""ContextVar-scoped telemetry sessions and no-op-cheap record helpers.

One :class:`TelemetrySession` bundles the tracer and the metrics
registry for one engine execution.  The engine opens a
:func:`telemetry_scope` around ``run`` / ``run_many``; instrumented
code anywhere below records through the module helpers :func:`span`,
:func:`metric_inc` and :func:`metric_record`, all of which collapse to
a single ContextVar read plus an ``is None`` test when telemetry is
disabled -- the hot path pays essentially nothing.
"""

from __future__ import annotations

from contextvars import ContextVar
from dataclasses import dataclass

from repro.telemetry.metrics import MetricsRegistry, SeriesHandle
from repro.telemetry.spans import Tracer


@dataclass
class TelemetrySession:
    """Tracer + metrics registry for one scoped execution."""

    tracer: Tracer
    metrics: MetricsRegistry


def telemetry_session() -> TelemetrySession:
    """Build a fresh session with an empty tracer and registry."""
    return TelemetrySession(Tracer(), MetricsRegistry())


_ACTIVE: ContextVar[TelemetrySession | None] = ContextVar(
    "repro_telemetry_session", default=None
)


def current_session() -> TelemetrySession | None:
    """The session collecting telemetry in this context, or None."""
    return _ACTIVE.get()


class _Scope:
    """Context manager activating one session (see :func:`telemetry_scope`)."""

    __slots__ = ("_session", "_token")

    def __init__(self, session: TelemetrySession | None):
        self._session = session
        self._token = None

    def __enter__(self) -> TelemetrySession | None:
        self._token = _ACTIVE.set(self._session)
        return self._session

    def __exit__(self, *exc_info) -> None:
        _ACTIVE.reset(self._token)


def telemetry_scope(session: TelemetrySession | None) -> _Scope:
    """Scope within which the record helpers target ``session``.

    Passing None explicitly deactivates telemetry for the block (an
    inner engine call inherits nothing from an outer scope), which is
    what makes the disabled fast path deterministic.  A plain class
    rather than a generator context manager: engines enter one per run.
    """
    return _Scope(session)


class _NoopSpan:
    """Shared do-nothing context manager for the disabled fast path."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc_info):
        return None


_NOOP = _NoopSpan()


def span(name: str, **attrs):
    """Open a span on the active session's tracer; no-op when inactive."""
    session = _ACTIVE.get()
    if session is None:
        return _NOOP
    return session.tracer.span(name, **attrs)


def metric_inc(
    name: str, amount: float = 1.0, labels: dict | None = None, help: str = ""
) -> None:
    """Bump a counter on the active session; no-op when inactive."""
    session = _ACTIVE.get()
    if session is not None:
        session.metrics.inc(name, amount, labels=labels, help=help)


def metric_record(handle: SeriesHandle, value: float = 1.0) -> None:
    """Record into a resolved series on the active session; no-op when inactive."""
    session = _ACTIVE.get()
    if session is not None:
        session.metrics.record(handle, value)


__all__ = [
    "TelemetrySession",
    "current_session",
    "metric_inc",
    "metric_record",
    "span",
    "telemetry_scope",
    "telemetry_session",
]
