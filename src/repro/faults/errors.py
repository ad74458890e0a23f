"""Typed exception hierarchy for fault-tolerant execution.

Every failure the engine can diagnose maps to one class here, so
callers can distinguish "your input is poisoned" (:class:`InvalidMatrixError`,
:class:`InvalidVectorError`) from "the server is shedding load"
(:class:`OverloadedError`, :class:`DeadlineExceededError`) without
string matching.  Input- and configuration-shaped errors subclass
:class:`ValueError`, so pre-existing ``except ValueError`` call sites
keep working unchanged.
"""

from __future__ import annotations


class FaultError(Exception):
    """Base class of every fault-tolerance exception in the package."""


class ConfigurationError(FaultError, ValueError):
    """A configuration value (argument or environment variable) is invalid."""


class InvalidInputError(FaultError, ValueError):
    """Base class for input-hardening rejections at the engine boundary."""


class InvalidMatrixError(InvalidInputError):
    """The sparse matrix violates the engine's input contract.

    Raised by :func:`repro.faults.validation.validate_matrix` for
    out-of-range or duplicate indices, non-finite values, unsorted
    RM-COO streams and shape/dtype mismatches.
    """


class InvalidVectorError(InvalidInputError):
    """A dense vector operand violates the engine's input contract."""


class WorkerCrashError(FaultError):
    """An executor died (or was simulated dead) while running a batch."""


class CorruptPayloadError(FaultError):
    """A payload failed its integrity check (or was simulated corrupt)."""


class InjectedFault(FaultError):
    """Deterministic failure raised by the fault-injection harness."""


class ServingError(FaultError):
    """Base class for failures raised by the :mod:`repro.serving` layer."""


class OverloadedError(ServingError):
    """The server shed a request under admission control.

    Raised when the global micro-batching queue is at capacity.  HTTP
    frontends map this to ``429 Too Many Requests``; clients should back
    off and retry.

    Attributes:
        queue_depth: Pending requests at rejection time.
        limit: The admission-control bound that was hit.
    """

    def __init__(self, message: str, queue_depth: int = -1, limit: int = -1):
        super().__init__(message)
        self.queue_depth = queue_depth
        self.limit = limit


class QuotaExceededError(OverloadedError):
    """A tenant exceeded its per-tenant quota (matrices or in-flight).

    Subclasses :class:`OverloadedError` so generic shed-handling catches
    both; the ``tenant`` attribute names the offender.
    """

    def __init__(self, message: str, tenant: str = "", queue_depth: int = -1, limit: int = -1):
        super().__init__(message, queue_depth=queue_depth, limit=limit)
        self.tenant = tenant


class UnknownMatrixError(ServingError, KeyError):
    """A request referenced a fingerprint that is not registered.

    Subclasses :class:`KeyError` so registry-shaped call sites can keep
    their ``except KeyError`` handling.
    """


class DeadlineExceededError(ServingError, TimeoutError):
    """A request's deadline expired before it could be served.

    Raised at admission when the queue's estimated wait already blows
    the remaining budget (shed-on-arrival), or resolved onto a queued
    request whose deadline expired by the time its batch formed.  HTTP
    frontends map this to ``504 Gateway Timeout``.

    Attributes:
        stage: Where the deadline was enforced -- ``"admission"``,
            ``"batch"`` or ``"execute"``.
        budget_s: The request's total deadline budget, when known.
    """

    def __init__(self, message: str, stage: str = "", budget_s: float = -1.0):
        super().__init__(message)
        self.stage = stage
        self.budget_s = budget_s


class ServerClosedError(ServingError):
    """``submit()`` was called during or after server shutdown.

    The server marks itself closed *before* draining, so concurrent
    submissions fail fast with this error instead of racing the
    executor teardown.  HTTP frontends map this to ``503``.
    """


class CircuitOpenError(ServingError):
    """A (tenant, matrix) lane's circuit breaker is rejecting requests.

    Raised at admission while the lane is open: it saw
    ``breaker_threshold`` consecutive failed batches (or a failed
    half-open probe) less than ``breaker_cooldown_s`` ago.  HTTP
    frontends map this to ``503`` with a ``Retry-After`` hint covering
    the cooldown left.

    Attributes:
        tenant: Owning tenant of the open lane.
        fingerprint: Matrix fingerprint of the open lane.
        retry_after_s: Seconds until the breaker will half-open.
    """

    def __init__(
        self,
        message: str,
        tenant: str = "",
        fingerprint: str = "",
        retry_after_s: float = 0.0,
    ):
        super().__init__(message)
        self.tenant = tenant
        self.fingerprint = fingerprint
        self.retry_after_s = retry_after_s


class SnapshotCorruptError(FaultError):
    """A registry snapshot entry failed CRC or fingerprint verification.

    Restore paths never let this escape: the offending entry is moved to
    the quarantine directory and restoration continues, so a corrupted
    snapshot degrades to a partial restore instead of a startup crash.
    """


__all__ = [
    "CircuitOpenError",
    "ConfigurationError",
    "CorruptPayloadError",
    "DeadlineExceededError",
    "FaultError",
    "InjectedFault",
    "InvalidInputError",
    "InvalidMatrixError",
    "InvalidVectorError",
    "OverloadedError",
    "QuotaExceededError",
    "ServerClosedError",
    "ServingError",
    "SnapshotCorruptError",
    "UnknownMatrixError",
    "WorkerCrashError",
]
