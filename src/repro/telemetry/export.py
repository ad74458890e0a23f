"""Chrome ``trace_event`` JSON export of a run's spans.

The Chrome format (one ``{"traceEvents": [...]}`` object of complete
``"ph": "X"`` events) loads directly in ``chrome://tracing`` and Perfetto
for flamegraph viewing; ``repro run|spgemm|solve --trace-out`` writes it.
Metrics have their own text form,
:meth:`~repro.telemetry.metrics.MetricsRegistry.to_prometheus`.

:func:`validate_chrome_trace` is the schema check the test-suite (and
any CI consumer) runs before trusting an exported trace.
"""

from __future__ import annotations

import json


def chrome_trace(spans, process_name: str = "repro") -> dict:
    """Render spans as a Chrome ``trace_event`` object.

    Every span becomes one complete event (``"ph": "X"``) on the
    wall-clock timeline (microseconds since the epoch), so spans recorded
    in different threads land correctly relative to each other.

    Args:
        spans: :class:`~repro.telemetry.spans.Span` objects.
        process_name: Label for the process-name metadata event.

    Returns:
        ``{"traceEvents": [...], "displayTimeUnit": "ms"}`` -- JSON-dump
        it to a file and load in ``chrome://tracing``.
    """
    events = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 0,
            "tid": 0,
            "args": {"name": process_name},
        }
    ]
    for span in spans:
        events.append(
            {
                "name": span.name,
                "cat": "span",
                "ph": "X",
                "ts": span.wall_start * 1e6,
                "dur": span.duration_s * 1e6,
                "pid": span.pid,
                "tid": span.thread or 0,
                "args": dict(span.attrs),
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(spans, path, process_name: str = "repro") -> None:
    """Dump :func:`chrome_trace` output as JSON at ``path``."""
    with open(path, "w") as fh:
        json.dump(chrome_trace(spans, process_name=process_name), fh, indent=1)
        fh.write("\n")


def validate_chrome_trace(payload: dict) -> None:
    """Schema-check a Chrome trace object; raises ``ValueError`` on errors.

    Checks the invariants ``chrome://tracing`` needs to load the file:
    a ``traceEvents`` list, every event a dict with a string ``name`` and
    a one-character ``ph``, and every complete (``"X"``) event carrying
    non-negative numeric ``ts``/``dur`` plus ``pid``.
    """
    if not isinstance(payload, dict) or "traceEvents" not in payload:
        raise ValueError("trace must be an object with a 'traceEvents' key")
    events = payload["traceEvents"]
    if not isinstance(events, list):
        raise ValueError("'traceEvents' must be a list")
    for slot, event in enumerate(events):
        if not isinstance(event, dict):
            raise ValueError(f"event {slot} is not an object")
        if not isinstance(event.get("name"), str) or not event["name"]:
            raise ValueError(f"event {slot} has no name")
        ph = event.get("ph")
        if not isinstance(ph, str) or len(ph) != 1:
            raise ValueError(f"event {slot} has invalid phase {ph!r}")
        if ph == "X":
            for field in ("ts", "dur"):
                value = event.get(field)
                if not isinstance(value, (int, float)) or value < 0:
                    raise ValueError(f"event {slot} field {field!r} invalid: {value!r}")
            if "pid" not in event:
                raise ValueError(f"event {slot} is missing pid")
        if "args" in event and not isinstance(event["args"], dict):
            raise ValueError(f"event {slot} args must be an object")


__all__ = ["chrome_trace", "validate_chrome_trace", "write_chrome_trace"]
