"""The SpMV server: registration, admission control, batched dispatch.

:class:`SpMVServer` is the transport-agnostic core of the serving layer.
It owns a :class:`~repro.serving.registry.MatrixRegistry` (matrices +
per-tenant engines), a :class:`~repro.serving.batching.MicroBatcher`
(dynamic coalescing into ``run_many``), and a ``MetricsRegistry`` that
the ``/metrics`` endpoint renders as Prometheus text.  The HTTP frontend
in :mod:`repro.serving.http` is a thin adapter over this class; tests
and the load generator drive it in-process.

Every served result is bit-identical to a direct ``engine.run`` on the
same matrix and vector: ``run_many`` guarantees column ``j`` of a batch
equals the single-RHS result, and the batcher only ever stacks requests
for the same (tenant, fingerprint) lane.  That identity survives every
resilience path too -- the circuit breaker's degradation ladder only
moves execution between backend tiers that are bit-identical by
contract, so a degraded run returns exactly the bytes the healthy tier
would have.

Resilience (see :mod:`repro.serving.resilience`):

* ``submit(deadline=...)`` enforces per-request deadlines at admission
  and batch formation; expired requests resolve with
  :class:`~repro.faults.errors.DeadlineExceededError`.
* A :class:`~repro.serving.resilience.CircuitBreaker` per
  (tenant, fingerprint) lane opens after K consecutive configured-tier
  failures, degrades down the backend ladder while open, half-opens for
  probes, and rejects outright only when the whole ladder failed.
* With a ``state_dir``, the matrix registry is snapshotted atomically
  (periodic + on shutdown) and restored at construction, with corrupted
  entries quarantined (see :mod:`repro.serving.snapshot`).
"""

from __future__ import annotations

import asyncio
import itertools
import random
import threading
import time
from dataclasses import dataclass

import numpy as np

from repro.api import EngineOptions
from repro.faults.errors import (
    DeadlineExceededError,
    FaultError,
    OverloadedError,
    QuotaExceededError,
    ServerClosedError,
)
from repro.faults.injection import apply_fault
from repro.faults.validation import validate_vector
from repro.serving.batching import BatchPolicy, MicroBatcher
from repro.serving.registry import MatrixRegistry, TenantQuotas
from repro.serving.resilience import (
    CircuitBreaker,
    Deadline,
    ResiliencePolicy,
    backoff_delays,
    degradation_ladder,
)
from repro.serving.snapshot import SnapshotStore
from repro.telemetry.metrics import MetricsRegistry


@dataclass(frozen=True)
class ServeResult:
    """One served request: the result vector plus serving facts."""

    y: np.ndarray
    fingerprint: str
    tenant: str
    batch_size: int
    queued_s: float
    wall_s: float


class SpMVServer:
    """Async SpMV service over registered matrices.

    Args:
        options: Engine options for every tenant engine (one audited
            configuration; resolved once at construction).
        policy: Micro-batching policy (flush triggers, queue bound).
        quotas: Per-tenant matrix and in-flight limits.
        resilience: Deadline/breaker/retry/snapshot policy; defaults to
            :class:`~repro.serving.resilience.ResiliencePolicy`.
        state_dir: Registry snapshot directory.  When set, a previous
            snapshot is restored immediately (corrupted entries
            quarantined) and :meth:`shutdown` writes a final snapshot;
            call :meth:`run_snapshot_loop` (the HTTP frontend and CLI
            do) for periodic saves.
    """

    def __init__(
        self,
        options: EngineOptions | None = None,
        policy: BatchPolicy | None = None,
        quotas: TenantQuotas | None = None,
        resilience: ResiliencePolicy | None = None,
        state_dir=None,
    ):
        self.options = (options or EngineOptions()).resolve()
        self.policy = policy or BatchPolicy()
        self.resilience = resilience or ResiliencePolicy()
        self.registry = MatrixRegistry(self.options, quotas)
        self.metrics = MetricsRegistry()
        self._batcher = MicroBatcher(self._execute, self.policy, metrics=self.metrics)
        self._inflight_by_tenant: dict[str, int] = {}
        self._breakers: dict[tuple, CircuitBreaker] = {}
        self._breaker_lock = threading.Lock()
        self._ladder = degradation_ladder(self.options.backend)
        self._rng = random.Random(0x5EED)
        self._execution_seq = itertools.count()
        self._closed = False
        self.snapshots: SnapshotStore | None = None
        self.last_restore: dict | None = None
        if state_dir is not None:
            self.snapshots = SnapshotStore(state_dir, metrics=self.metrics)
            self.last_restore = self.snapshots.restore(self.registry)
        self.started_at = time.time()

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------

    def register(self, matrix, tenant: str = "default") -> str:
        """Register a matrix for a tenant; returns its fingerprint."""
        fingerprint = self.registry.register(matrix, tenant)
        self.metrics.inc(
            "serving_matrices_registered_total",
            labels={"tenant": tenant},
            help="Matrix registrations accepted",
        )
        return fingerprint

    def unregister(self, fingerprint: str, tenant: str = "default") -> None:
        """Drop one registration (and its cached plan)."""
        self.registry.unregister(fingerprint, tenant)

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------

    async def submit(
        self,
        fingerprint: str,
        x,
        tenant: str = "default",
        deadline: Deadline | float | None = None,
    ) -> ServeResult:
        """Serve ``y = A x`` for a registered matrix.

        The request joins the (tenant, fingerprint) micro-batching lane;
        it resolves once its batch executes.

        Args:
            fingerprint: Registered matrix fingerprint.
            x: RHS vector of length ``n_cols``.
            tenant: Issuing tenant.
            deadline: Per-request deadline -- a
                :class:`~repro.serving.resilience.Deadline`, a float
                budget in seconds, or None to use the policy's
                ``default_deadline_s`` (None there too means no
                deadline).

        Raises:
            UnknownMatrixError: Unregistered fingerprint.
            QuotaExceededError / OverloadedError: Admission control.
            DeadlineExceededError: Deadline expired at admission or
                while queued (HTTP 504).
            CircuitOpenError: The lane's breaker is rejecting outright
                (HTTP 503).
            ServerClosedError: Shutdown has begun (HTTP 503).
            InvalidVectorError: Malformed operand.
        """
        t0 = time.perf_counter()
        outcome = "error"
        try:
            if self._closed:
                outcome = "closed"
                raise ServerClosedError(
                    "server is shut down; no further submissions accepted"
                )
            deadline = Deadline.coerce(
                deadline
                if deadline is not None
                else self.resilience.default_deadline_s
            )
            registration = self.registry.get(fingerprint, tenant)
            self._breaker((tenant, fingerprint)).admit(tenant, fingerprint)
            x = validate_vector(
                x, registration.matrix.n_cols, name="x", strict=False, ndim=1
            )
            inflight = self._inflight_by_tenant.get(tenant, 0)
            if inflight >= self.registry.quotas.max_inflight:
                outcome = "quota"
                raise QuotaExceededError(
                    f"tenant {tenant!r} has {inflight} requests in flight "
                    f"(limit {self.registry.quotas.max_inflight})",
                    tenant=tenant,
                    queue_depth=inflight,
                    limit=self.registry.quotas.max_inflight,
                )
            self._inflight_by_tenant[tenant] = inflight + 1
            try:
                batched = await self._batcher.submit(
                    (tenant, fingerprint), x, deadline=deadline
                )
            finally:
                self._inflight_by_tenant[tenant] -= 1
            outcome = "ok"
            return ServeResult(
                y=batched.y,
                fingerprint=fingerprint,
                tenant=tenant,
                batch_size=batched.batch_size,
                queued_s=batched.queued_s,
                wall_s=time.perf_counter() - t0,
            )
        except asyncio.CancelledError:
            # Client disconnect: the HTTP frontend cancelled us.  The
            # quota slot was already released by the inner finally; stamp
            # the outcome-labelled counter and let cancellation
            # propagate so task groups still observe it.
            outcome = "cancelled"
            self.metrics.inc(
                "serving_cancelled_total",
                labels={"stage": "submit"},
                help="Requests cancelled before execution",
            )
            raise
        except DeadlineExceededError:
            outcome = "deadline"
            raise
        except OverloadedError:
            if outcome != "quota":
                outcome = "overloaded"
            raise
        except FaultError as exc:
            if outcome == "error":
                outcome = type(exc).__name__
            raise
        finally:
            self.metrics.inc(
                "serving_requests_total",
                labels={"tenant": tenant, "outcome": outcome},
                help="Requests by tenant and outcome",
            )
            if outcome == "ok":
                self.metrics.observe(
                    "serving_request_seconds",
                    time.perf_counter() - t0,
                    labels={"tenant": tenant},
                    help="End-to-end request latency",
                )

    # ------------------------------------------------------------------
    # Execution: degradation ladder + bounded jittered retries
    # ------------------------------------------------------------------

    def _breaker(self, key) -> CircuitBreaker:
        with self._breaker_lock:
            breaker = self._breakers.get(key)
            if breaker is None:
                tenant, fingerprint = key
                labels = {"tenant": tenant, "matrix": fingerprint}

                def on_state(state: int, labels=labels) -> None:
                    self.metrics.set(
                        "serving_circuit_state",
                        float(state),
                        labels=labels,
                        help="Circuit state: 0 closed, 1 open, 2 half-open",
                    )

                breaker = CircuitBreaker(self.resilience, on_state=on_state)
                on_state(breaker.state)
                self._breakers[key] = breaker
            return breaker

    def _execute(self, key, X: np.ndarray, deadline: Deadline | None = None) -> np.ndarray:
        """Run one coalesced batch (called by the batcher in a thread).

        Walks the breaker-selected rungs of the degradation ladder; each
        rung gets bounded jittered retries that respect the remaining
        deadline budget.  A configured-tier success closes the lane's
        circuit; a whole-ladder failure opens it outright.
        """
        tenant, fingerprint = key
        registration = self.registry.get(fingerprint, tenant)
        breaker = self._breaker(key)
        tiers = breaker.plan_tiers(self._ladder)
        last_error: Exception | None = None
        for tier in tiers:
            tier_index = self._ladder.index(tier)
            degraded = tier_index > 0
            if degraded:
                self.metrics.inc(
                    "serving_degraded_runs_total",
                    labels={"tier": tier},
                    help="Batches executed on a degraded backend tier",
                )
            try:
                Y = self._attempt_tier(registration, tenant, tier, degraded, X, deadline)
            except Exception as exc:  # noqa: BLE001 - every failure feeds the breaker
                last_error = exc
                breaker.record_failure(tier_index)
                continue
            breaker.record_success(tier_index)
            registration.requests_served += X.shape[1]
            registration.batches_served += 1
            return Y
        breaker.record_exhausted()
        assert last_error is not None
        raise last_error

    def _attempt_tier(
        self, registration, tenant: str, tier: str, degraded: bool, X, deadline
    ) -> np.ndarray:
        """One ladder rung: first try plus bounded jittered retries."""
        engine = self.registry.engine(tenant, backend=tier if degraded else None)
        delays = backoff_delays(self.resilience, self._rng)
        while True:
            try:
                apply_fault("executor", next(self._execution_seq))
                Y, _report = engine.run_many(registration.matrix, X)
                return Y
            except Exception:
                backoff = next(delays, None)
                if backoff is None:
                    raise
                if deadline is not None and deadline.remaining() <= backoff:
                    # Sleeping through the deadline helps nobody; move
                    # down the ladder (cheap) instead of retrying (slow).
                    raise
                self.metrics.inc(
                    "serving_retries_total",
                    labels={"tier": tier},
                    help="Batch execution retries, by backend tier",
                )
                time.sleep(backoff)

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------

    def save_snapshot(self) -> dict | None:
        """Write one registry snapshot now (no-op without a state dir).

        A failed save is counted (``serving_snapshot_failures_total``)
        and re-raised for the caller to decide; the periodic loop
        swallows it and keeps serving.
        """
        if self.snapshots is None:
            return None
        try:
            return self.snapshots.save(self.registry)
        except Exception:
            self.snapshots.save_failures += 1
            self.metrics.inc(
                "serving_snapshot_failures_total",
                help="Registry snapshot attempts that failed",
            )
            raise

    async def run_snapshot_loop(self) -> None:
        """Periodically snapshot the registry until cancelled.

        Runs only when a state dir is configured and the policy sets
        ``snapshot_interval_s``; a failed save never kills the loop.
        """
        if self.snapshots is None or self.resilience.snapshot_interval_s is None:
            return
        while not self._closed:
            await asyncio.sleep(self.resilience.snapshot_interval_s)
            try:
                await asyncio.to_thread(self.save_snapshot)
            except asyncio.CancelledError:
                raise
            except Exception:
                continue

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def close(self) -> None:
        """Quiesce: flush pending lanes and wait for in-flight batches.

        Non-terminal -- the execution threads stay up and the server
        accepts new submissions afterwards.  Use this between load
        phases (the benchmarks do) or to checkpoint a quiet moment;
        call :meth:`shutdown` for the terminal path.
        """
        await self._batcher.drain()

    async def shutdown(self) -> None:
        """Terminal close: reject new work, drain, release the threads.

        The closed flag is raised *first*, so a ``submit()`` racing the
        shutdown fails fast with
        :class:`~repro.faults.errors.ServerClosedError` instead of
        racing the executor teardown; requests already queued drain to
        completion.  With a state dir, a final snapshot is written after
        the drain.  Idempotent.
        """
        self._closed = True
        await self._batcher.drain()
        self._batcher.shutdown()
        if self.snapshots is not None:
            try:
                await asyncio.to_thread(self.save_snapshot)
            except Exception:
                pass

    @property
    def closed(self) -> bool:
        """True once :meth:`shutdown` has begun."""
        return self._closed

    def retry_after_hint(self) -> float:
        """Queue-aware backoff hint in seconds for 429/503 responses.

        Derived from the current queue depth and the observed EWMA batch
        latency (see :meth:`MicroBatcher.estimated_wait_s`); the HTTP
        frontend jitters and clamps it into the ``Retry-After`` header.
        """
        return max(self._batcher.estimated_wait_s(), self.policy.max_delay_s)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def health(self) -> dict:
        """Liveness summary for ``GET /health``."""
        return {
            "status": "closed" if self._closed else "ok",
            "uptime_s": round(time.time() - self.started_at, 3),
            "tenants": len(self.registry.tenants()),
            "queue_depth": self._batcher.in_flight,
            "queue_limit": self.policy.max_queue,
        }

    def stats(self) -> dict:
        """Operational snapshot for ``GET /stats``."""
        return {
            "uptime_s": round(time.time() - self.started_at, 3),
            "policy": {
                "max_batch": self.policy.max_batch,
                "max_delay_s": self.policy.max_delay_s,
                "max_queue": self.policy.max_queue,
            },
            "queue": {
                "in_flight": self._batcher.in_flight,
                "batches": self._batcher.batches,
                "coalesced": self._batcher.coalesced,
                "by_trigger": dict(self._batcher.by_trigger),
                "shed": self._batcher.shed,
                "expired": self._batcher.expired,
                "cancelled": self._batcher.cancelled,
                "ewma_batch_ms": round(self._batcher.ewma_batch_s * 1e3, 3),
                "mean_batch": (
                    round(self._batcher.coalesced / self._batcher.batches, 3)
                    if self._batcher.batches
                    else None
                ),
            },
            "engine_options": {
                name: value
                for name, (value, _source) in self.options.provenance().items()
                if value is not None
            },
            "registry": self.registry.stats(),
            "backend": self._backend_stats(),
            "resilience": self._resilience_stats(),
        }

    def _resilience_stats(self) -> dict:
        """Breaker, deadline, retry and snapshot state for ``/stats``."""
        with self._breaker_lock:
            breakers = {
                f"{tenant}/{fingerprint}": breaker.describe()
                for (tenant, fingerprint), breaker in sorted(self._breakers.items())
            }
        return {
            "policy": {
                "default_deadline_s": self.resilience.default_deadline_s,
                "breaker_threshold": self.resilience.breaker_threshold,
                "breaker_cooldown_s": self.resilience.breaker_cooldown_s,
                "max_retries": self.resilience.max_retries,
                "snapshot_interval_s": self.resilience.snapshot_interval_s,
            },
            "ladder": list(self._ladder),
            "breakers": breakers,
            "deadline_exceeded": int(
                self.metrics.total("serving_deadline_exceeded_total")
            ),
            "cancelled": int(self.metrics.total("serving_cancelled_total")),
            "retries": int(self.metrics.total("serving_retries_total")),
            "degraded_runs": int(self.metrics.total("serving_degraded_runs_total")),
            "snapshots": (
                self.snapshots.describe() if self.snapshots is not None else None
            ),
            "last_restore": (
                {
                    "restored": len(self.last_restore["restored"]),
                    "quarantined": len(self.last_restore["quarantined"]),
                }
                if self.last_restore is not None
                else None
            ),
        }

    def _backend_stats(self) -> dict:
        """Which backend serves requests, and how many runs each took.

        Merges every instantiated engine registry -- including
        degraded-tier engines the ladder may have created -- so
        operators can see the configured backend and the runs per
        backend without scraping Prometheus.
        """
        merged = MetricsRegistry()
        for _tenant, _backend, engine in self.registry.engines():
            if hasattr(engine, "metrics"):
                merged.merge(engine.metrics())

        def flat(name: str) -> dict:
            return {
                ",".join(f"{k}={v}" for k, v in key) or "_": value
                for key, value in merged.series(name).items()
            }

        return {
            "configured": self.options.backend,
            "runs_total": flat("spmv_backend_runs_total"),
            "spgemm_runs_total": flat("spgemm_backend_runs_total"),
        }

    def prometheus(self) -> str:
        """Prometheus exposition text: serving + per-tenant engine metrics."""
        merged = MetricsRegistry()
        merged.merge(self.metrics)
        merged.set(
            "serving_queue_depth",
            float(self._batcher.in_flight),
            help="Requests currently queued or executing",
        )
        for _tenant, _backend, engine in self.registry.engines():
            if hasattr(engine, "metrics"):
                merged.merge(engine.metrics())
        return merged.to_prometheus()


__all__ = ["ServeResult", "SpMVServer"]
