"""Resilience primitives for the serving layer.

Three mechanisms, all configured through one :class:`ResiliencePolicy`:

* **Deadlines** -- a :class:`Deadline` is an absolute expiry on the
  monotonic clock.  The server enforces it at *admission* (shed on
  arrival when the queue's estimated wait already blows the remaining
  budget), the batcher re-checks it when a batch *forms* (expired
  members are dropped from the batch and resolved with
  :class:`~repro.faults.errors.DeadlineExceededError` instead of being
  executed), and the execution retry loop respects whatever budget
  remains when pacing its backoff sleeps.

* **Circuit breakers** -- one :class:`CircuitBreaker` per
  (tenant, fingerprint) lane.  ``breaker_threshold`` consecutive failed
  batches open the lane; while open, every submission is rejected with
  :class:`~repro.faults.errors.CircuitOpenError` until
  ``breaker_cooldown_s`` has passed.  Then the lane is half-open and the
  next batch probes the lane's engine: success closes the lane, failure
  re-opens it for another cooldown.  There is no fallback engine: a
  lane runs on its one configured backend or not at all.

* **Bounded jittered retries** -- a batch gets ``max_retries``
  re-attempts with exponential backoff (``retry_base_s * 2**attempt``)
  and multiplicative jitter in ``[1 - retry_jitter, 1 + retry_jitter]``.
  A retry whose backoff sleep would not fit in the remaining deadline
  budget is abandoned: the batch fails now instead of sleeping through
  the deadline.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass

from repro.faults.errors import CircuitOpenError, ConfigurationError

#: Circuit states, also the values of the ``serving_circuit_state`` gauge.
CIRCUIT_CLOSED = 0
CIRCUIT_OPEN = 1
CIRCUIT_HALF_OPEN = 2

_STATE_NAMES = {CIRCUIT_CLOSED: "closed", CIRCUIT_OPEN: "open", CIRCUIT_HALF_OPEN: "half-open"}


@dataclass(frozen=True)
class ResiliencePolicy:
    """Deadline, breaker, retry and snapshot knobs in one dataclass.

    Attributes:
        default_deadline_s: Deadline budget applied to requests that do
            not carry their own; ``None`` (the default) means requests
            without a deadline never expire.
        breaker_threshold: Consecutive failed batches that open a
            lane's circuit.
        breaker_cooldown_s: Seconds an open lane waits before
            half-opening for a probe.
        max_retries: Re-attempts per batch after the first failure
            (0 disables retries).
        retry_base_s: Base backoff; attempt ``i`` sleeps roughly
            ``retry_base_s * 2**i``, jittered.
        retry_jitter: Multiplicative jitter fraction applied to each
            backoff sleep (0 disables jitter; 0.5 means +-50%).
        snapshot_interval_s: Periodic registry-snapshot cadence when the
            server has a state dir; ``None`` snapshots only at shutdown.
    """

    default_deadline_s: float | None = None
    breaker_threshold: int = 3
    breaker_cooldown_s: float = 0.25
    max_retries: int = 2
    retry_base_s: float = 0.005
    retry_jitter: float = 0.5
    snapshot_interval_s: float | None = None

    def __post_init__(self) -> None:
        if self.default_deadline_s is not None and self.default_deadline_s <= 0:
            raise ConfigurationError("default_deadline_s must be positive or None")
        if self.breaker_threshold <= 0:
            raise ConfigurationError("breaker_threshold must be positive")
        if self.breaker_cooldown_s < 0:
            raise ConfigurationError("breaker_cooldown_s must be non-negative")
        if self.max_retries < 0:
            raise ConfigurationError("max_retries must be non-negative")
        if self.retry_base_s < 0:
            raise ConfigurationError("retry_base_s must be non-negative")
        if not 0 <= self.retry_jitter <= 1:
            raise ConfigurationError("retry_jitter must be in [0, 1]")
        if self.snapshot_interval_s is not None and self.snapshot_interval_s <= 0:
            raise ConfigurationError("snapshot_interval_s must be positive or None")


class Deadline:
    """An absolute expiry on the monotonic clock.

    Constructed from a relative budget (:meth:`from_budget`) or coerced
    from the values callers naturally pass (:meth:`coerce`): an existing
    ``Deadline``, a float budget in seconds, or ``None``.
    """

    __slots__ = ("expires_at", "budget_s")

    def __init__(self, expires_at: float, budget_s: float = -1.0):
        self.expires_at = float(expires_at)
        self.budget_s = float(budget_s)

    @classmethod
    def from_budget(cls, budget_s: float) -> "Deadline":
        """A deadline ``budget_s`` seconds from now."""
        if budget_s < 0:
            raise ConfigurationError("deadline budget must be non-negative")
        return cls(time.monotonic() + budget_s, budget_s=budget_s)

    @classmethod
    def coerce(cls, value: "Deadline | float | None") -> "Deadline | None":
        """Normalize ``Deadline | float-budget | None`` to a Deadline."""
        if value is None or isinstance(value, Deadline):
            return value
        return cls.from_budget(float(value))

    def remaining(self) -> float:
        """Seconds left; negative once expired."""
        return self.expires_at - time.monotonic()

    @property
    def expired(self) -> bool:
        return self.remaining() <= 0

    def __repr__(self) -> str:
        return f"<Deadline remaining={self.remaining() * 1e3:.1f}ms>"


class CircuitBreaker:
    """Consecutive-failure circuit for one (tenant, fingerprint) lane.

    Closed -> open after ``breaker_threshold`` consecutive failed
    batches; open -> half-open once ``breaker_cooldown_s`` has passed
    (checked at admission); half-open -> closed on the probe's success,
    or back to open on its failure.  Any success resets the count.

    Thread-safe: ``admit`` runs on the event loop while ``record_*``
    run in the batch-execution threads.  State transitions invoke
    ``on_state(state_int)`` (used to keep the
    ``serving_circuit_state{tenant,matrix}`` gauge current).
    """

    def __init__(self, policy: ResiliencePolicy, on_state=None):
        self.policy = policy
        self._on_state = on_state
        self._lock = threading.Lock()
        self.state = CIRCUIT_CLOSED
        self.consecutive_failures = 0
        self.opened_at = 0.0
        self.opens = 0

    @property
    def state_name(self) -> str:
        return _STATE_NAMES[self.state]

    def _set_state(self, state: int) -> None:
        if state != self.state:
            self.state = state
            if self._on_state is not None:
                self._on_state(state)

    def admit(self, tenant: str, fingerprint: str) -> None:
        """Reject while the lane is open; half-open it once the
        cooldown has passed, so the next batch probes the engine.

        Raises:
            CircuitOpenError: The lane is open and inside its cooldown;
                ``retry_after_s`` is the cooldown left.
        """
        with self._lock:
            if self.state != CIRCUIT_OPEN:
                return
            left = self.opened_at + self.policy.breaker_cooldown_s - time.monotonic()
            if left > 0:
                raise CircuitOpenError(
                    f"circuit open for tenant {tenant!r} matrix {fingerprint!r} "
                    f"after {self.consecutive_failures} failed batches; retry in "
                    f"{left:.3f}s",
                    tenant=tenant,
                    fingerprint=fingerprint,
                    retry_after_s=left,
                )
            self._set_state(CIRCUIT_HALF_OPEN)

    def record_success(self) -> None:
        """A batch executed: the lane closes."""
        with self._lock:
            self.consecutive_failures = 0
            self._set_state(CIRCUIT_CLOSED)

    def record_failure(self) -> None:
        """A batch failed (first try and every retry): count it, and
        open the lane at the threshold or on a failed probe."""
        with self._lock:
            self.consecutive_failures += 1
            if self.state == CIRCUIT_HALF_OPEN or (
                self.consecutive_failures >= self.policy.breaker_threshold
            ):
                if self.state != CIRCUIT_OPEN:
                    self.opens += 1
                self.opened_at = time.monotonic()
                self._set_state(CIRCUIT_OPEN)

    def describe(self) -> dict:
        """JSON-native snapshot for ``/stats``."""
        with self._lock:
            return {
                "state": self.state_name,
                "consecutive_failures": self.consecutive_failures,
                "opens": self.opens,
            }


def backoff_delays(policy: ResiliencePolicy, rng: random.Random):
    """Yield the jittered backoff sleep before each retry attempt."""
    for attempt in range(policy.max_retries):
        base = policy.retry_base_s * (2 ** attempt)
        jitter = 1.0 + policy.retry_jitter * (2.0 * rng.random() - 1.0)
        yield base * jitter


__all__ = [
    "CIRCUIT_CLOSED",
    "CIRCUIT_HALF_OPEN",
    "CIRCUIT_OPEN",
    "CircuitBreaker",
    "Deadline",
    "ResiliencePolicy",
    "backoff_delays",
]
