"""ContextVar-scoped telemetry sessions and no-op-cheap record helpers.

One :class:`TelemetrySession` bundles the tracer, the metrics registry
and the attached hooks for one engine execution.  The engine opens a
:func:`telemetry_scope` around ``run`` / ``run_many``; instrumented
code anywhere below records through the module helpers :func:`span`,
:func:`metric_inc`, :func:`metric_set`, :func:`metric_observe`,
:func:`metric_record` and :func:`annotate_span`, all of which collapse
to a single ContextVar read plus an ``is None`` test when telemetry is
disabled -- the hot path pays essentially nothing.

External collectors attach process-wide with :func:`add_global_hook`;
engines include the global hooks in every session they create, so
benchmarks can observe spans and metrics without patching any engine
internals.
"""

from __future__ import annotations

from contextvars import ContextVar
from dataclasses import dataclass, field

from repro.telemetry.metrics import MetricsRegistry, SeriesHandle
from repro.telemetry.spans import Span, Tracer

#: Process-wide hooks included in every session engines create.
_GLOBAL_HOOKS: list = []


def add_global_hook(hook) -> None:
    """Attach ``hook`` to every future session (process-wide)."""
    _GLOBAL_HOOKS.append(hook)


def remove_global_hook(hook) -> None:
    """Detach a previously added global hook (no-op when absent)."""
    try:
        _GLOBAL_HOOKS.remove(hook)
    except ValueError:
        pass


def global_hooks() -> tuple:
    """The currently attached process-wide hooks."""
    return tuple(_GLOBAL_HOOKS)


@dataclass
class TelemetrySession:
    """Tracer + metrics registry + hooks for one scoped execution."""

    tracer: Tracer
    metrics: MetricsRegistry
    hooks: tuple = ()


def telemetry_session(hooks: tuple = ()) -> TelemetrySession:
    """Build a fresh session wired to ``hooks`` plus the global hooks."""
    all_hooks = tuple(hooks) + global_hooks()
    # Positional: engines build one session per run.
    return TelemetrySession(Tracer(all_hooks), MetricsRegistry(all_hooks), all_hooks)


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


def annotate_span(label: str, detail: str = "") -> None:
    """Annotate the innermost open span; no-op when inactive."""
    session = _ACTIVE.get()
    if session is not None:
        session.tracer.annotate(label, detail)


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


def metric_set(
    name: str, value: float, labels: dict | None = None, help: str = ""
) -> None:
    """Set a gauge on the active session; no-op when inactive."""
    session = _ACTIVE.get()
    if session is not None:
        session.metrics.set(name, value, labels=labels, help=help)


def metric_observe(
    name: str, value: float, labels: dict | None = None, help: str = ""
) -> None:
    """Record a histogram observation; no-op when inactive."""
    session = _ACTIVE.get()
    if session is not None:
        session.metrics.observe(name, value, labels=labels, help=help)


__all__ = [
    "TelemetrySession",
    "add_global_hook",
    "annotate_span",
    "current_session",
    "global_hooks",
    "metric_inc",
    "metric_observe",
    "metric_record",
    "metric_set",
    "remove_global_hook",
    "span",
    "telemetry_scope",
    "telemetry_session",
]
