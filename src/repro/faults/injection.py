"""Deterministic fault-injection harness.

Testing a recovery path requires failures on demand: an executor that
dies on exactly the ``k``-th batch, a call that hangs long enough to
blow a deadline, a snapshot payload whose bytes arrive scrambled.  A
:class:`FaultPlan` scripts those failures against named *sites* -- the
serving layer's instrumentation points (:data:`SERVING_SITES`) -- and
:func:`inject_faults` arms the plan for the duration of a ``with``
block.  Matching is by (site, index) with an explicit shot count, so
every scenario replays exactly, independent of scheduling order.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass

from repro.faults.errors import CorruptPayloadError, InjectedFault, WorkerCrashError

#: Recognized fault kinds.
_FAULT_KINDS = ("raise", "kill", "delay", "corrupt")

#: Matches any index at a site.
ANY_INDEX = -1

#: Serving-layer injection sites consulted through :func:`apply_fault`:
#: ``"batch"`` fires when a coalesced batch forms (before execution),
#: ``"executor"`` inside each batch-execution attempt (so retries and the
#: circuit breaker are exercised), ``"registry.io"`` around snapshot
#: payload reads/writes, and ``"http"`` in the HTTP frontend's routing.
SERVING_SITES = ("batch", "executor", "registry.io", "http")


@dataclass(frozen=True)
class FaultSpec:
    """One scripted failure.

    Attributes:
        site: Instrumented site the fault targets.
        kind: ``"raise"`` (site raises :class:`InjectedFault`),
            ``"kill"`` (site raises :class:`WorkerCrashError`),
            ``"delay"`` (site sleeps ``delay_s`` -- pair with a
            deadline), ``"corrupt"`` (site raises
            :class:`CorruptPayloadError`).
        index: Site index that triggers the fault; :data:`ANY_INDEX`
            matches every index.
        times: How many matches fire before the spec is spent; -1 fires
            forever (use to exhaust retries and open the breaker).
        delay_s: Sleep duration for ``"delay"`` faults.
        message: Text carried by the raised exception.
    """

    site: str
    kind: str = "raise"
    index: int = 0
    times: int = 1
    delay_s: float = 0.05
    message: str = "injected fault"

    def __post_init__(self) -> None:
        if self.kind not in _FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; expected one of {_FAULT_KINDS}")
        if self.times == 0:
            raise ValueError("times must be positive or -1 (unlimited)")


class FaultPlan:
    """An ordered set of :class:`FaultSpec` with per-spec shot counts.

    Matching consumes shots, so a spec with ``times=1`` hits the first
    qualifying submission and lets every retry through -- the recovery
    path is what ends up under test.  The plan keeps a ``fired`` log of
    ``(site, index, kind)`` triples for assertions.
    """

    def __init__(self, *specs: FaultSpec):
        self.specs = list(specs)
        self._remaining = [spec.times for spec in specs]
        self.fired: list[tuple] = []
        self._lock = threading.Lock()

    def match(self, site: str, index: int) -> FaultSpec | None:
        """Consume and return the first armed spec matching ``(site, index)``."""
        with self._lock:
            for slot, spec in enumerate(self.specs):
                if spec.site != site or self._remaining[slot] == 0:
                    continue
                if spec.index != ANY_INDEX and spec.index != index:
                    continue
                if self._remaining[slot] > 0:
                    self._remaining[slot] -= 1
                self.fired.append((site, index, spec.kind))
                return spec
        return None

    @property
    def exhausted(self) -> bool:
        """True once no spec can fire again (unlimited specs never exhaust)."""
        return all(r == 0 for r in self._remaining)

    def __repr__(self) -> str:
        return f"<FaultPlan specs={len(self.specs)} fired={len(self.fired)}>"


_ACTIVE_PLAN: FaultPlan | None = None
_PLAN_LOCK = threading.Lock()


def active_plan() -> FaultPlan | None:
    """The currently armed plan, or None outside :func:`inject_faults`."""
    return _ACTIVE_PLAN


@contextmanager
def inject_faults(plan: FaultPlan):
    """Arm ``plan`` for the dynamic extent of the block (process-global)."""
    global _ACTIVE_PLAN
    with _PLAN_LOCK:
        if _ACTIVE_PLAN is not None:
            raise RuntimeError("a FaultPlan is already armed")
        _ACTIVE_PLAN = plan
    try:
        yield plan
    finally:
        _ACTIVE_PLAN = None


def match_fault(site: str, index: int) -> FaultSpec | None:
    """Convenience: match against the armed plan (None when unarmed)."""
    plan = _ACTIVE_PLAN
    if plan is None:
        return None
    return plan.match(site, index)


def apply_fault(site: str, index: int = 0) -> None:
    """Consult the armed plan at a site and act on a match.

    A matching ``"delay"`` spec sleeps here, ``"kill"`` raises
    :class:`WorkerCrashError` (threads cannot be killed from outside;
    the observable effect is the same), ``"corrupt"`` raises
    :class:`CorruptPayloadError` and ``"raise"`` raises
    :class:`InjectedFault`.  A no-op when no plan is armed or nothing
    matches.
    """
    spec = match_fault(site, index)
    if spec is None:
        return
    if spec.kind == "delay":
        time.sleep(spec.delay_s)
        return
    if spec.kind == "kill":
        raise WorkerCrashError(spec.message)
    if spec.kind == "corrupt":
        raise CorruptPayloadError(spec.message)
    raise InjectedFault(spec.message)


__all__ = [
    "ANY_INDEX",
    "SERVING_SITES",
    "FaultPlan",
    "FaultSpec",
    "active_plan",
    "apply_fault",
    "inject_faults",
    "match_fault",
]
