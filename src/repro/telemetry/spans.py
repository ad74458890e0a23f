"""Nested, timed trace spans.

A :class:`Tracer` records a tree of :class:`Span` objects for one engine
execution: ``spmv.run`` at the root, then one span per phase below it
(``plan.build``, ``step1``, ``step2`` > ``step2.merge``).  Per-stripe
counts ride on the phase spans' attributes (``n_stripes``), not on spans
of their own.  The plan-free merge model
(:func:`~repro.merge.prap.prap_merge_dense`) adds one ``inject`` span
for its store-queue assembly; the engine never opens one.

Durations come from ``time.perf_counter`` (monotonic, high resolution);
every span additionally stamps a wall-clock ``wall_start`` so exporters
can place spans on an absolute timeline.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    """One timed region of the execution.

    Attributes:
        name: Region label (``"step1"``, ``"step2.merge"``, ...).
        span_id: Tracer-unique id.
        parent_id: Id of the enclosing span; None for a root.
        t_start: ``perf_counter`` at entry.
        t_end: ``perf_counter`` at exit; 0.0 while the span is open.
        wall_start: ``time.time()`` at entry (absolute timeline).
        attrs: Static key/value annotations set at open time.
        pid: Recording process id.
        thread: Recording thread name.
    """

    name: str
    span_id: int
    parent_id: int | None = None
    t_start: float = 0.0
    t_end: float = 0.0
    wall_start: float = 0.0
    attrs: dict = field(default_factory=dict)
    pid: int = 0
    thread: str = ""

    @property
    def duration_s(self) -> float:
        """Elapsed seconds (0.0 while still open)."""
        return max(0.0, self.t_end - self.t_start)

    def to_record(self) -> dict:
        """JSON-ready flat form of this span."""
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "wall_start": self.wall_start,
            "dur_s": self.duration_s,
            "attrs": dict(self.attrs),
            "pid": self.pid,
            "thread": self.thread,
        }


class _OpenSpan:
    """Context manager closing one span on exit (used by Tracer.span)."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span):
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, *exc_info) -> None:
        self._tracer._close(self._span)


class Tracer:
    """Collects one execution's span tree.

    Spans are opened/closed by the engine's calling thread; the finished
    list is guarded by the tracer lock so readers on other threads see a
    consistent snapshot.
    """

    def __init__(self):
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._finished: list[Span] = []
        self._stack: list[Span] = []

    def span(self, name: str, **attrs) -> _OpenSpan:
        """Open a child span of the innermost open span.

        Use as a context manager::

            with tracer.span("step2.merge", lists=4):
                ...
        """
        parent = self._stack[-1].span_id if self._stack else None
        # Positional: a dataclass __init__ called with keywords costs
        # about three times as much, and engines open spans every run.
        span = Span(
            name,
            next(self._ids),
            parent,
            time.perf_counter(),
            0.0,
            time.time(),
            attrs,
            os.getpid(),
            threading.current_thread().name,
        )
        self._stack.append(span)
        return _OpenSpan(self, span)

    def _close(self, span: Span) -> None:
        span.t_end = time.perf_counter()
        # Closes are LIFO on the calling thread; tolerate a missed
        # close (exception unwound past it) by popping through.
        while self._stack and self._stack[-1] is not span:
            self._stack.pop()
        if self._stack:
            self._stack.pop()
        with self._lock:
            self._finished.append(span)

    def current(self) -> Span | None:
        """The innermost open span, or None."""
        return self._stack[-1] if self._stack else None

    def finished(self) -> list[Span]:
        """Completed spans in completion order (children before parents)."""
        with self._lock:
            return list(self._finished)

    def __repr__(self) -> str:
        return f"<Tracer finished={len(self._finished)} open={len(self._stack)}>"


__all__ = ["Span", "Tracer"]
