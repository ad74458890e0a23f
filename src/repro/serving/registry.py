"""Matrix registration and multi-tenant engine/plan caching.

Serving reuses matrix-side work across requests the same way SMASH
reuses fingerprint-keyed indexes across repeated operations: a matrix is
registered once, keyed by a *content* fingerprint (dimensions + the raw
triple bytes), and every subsequent request names the fingerprint
instead of shipping the matrix.  Each tenant gets its own engine -- and
therefore its own execution-plan cache -- so one tenant's traffic cannot
evict another's hot plans.

Eviction pressure is two-level: the engine's plan cache is already LRU
(``TwoStepConfig.plan_cache``), and the registry applies a per-tenant
LRU over *registered matrices* (``TenantQuotas.max_matrices``); evicting
a registration also drops its plan from the tenant engine
(:meth:`~repro.core.twostep.TwoStepEngine.forget`), so capacity is
actually released.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from repro.api import create_engine, resolve_config
from repro.core.config import TwoStepConfig
from repro.core.twostep import TwoStepEngine
from repro.faults.errors import (
    ConfigurationError,
    SnapshotCorruptError,
    UnknownMatrixError,
)


def matrix_fingerprint(matrix) -> str:
    """Content fingerprint of an RM-COO matrix.

    SHA-256 over the dimensions and the raw bytes of the ``rows``,
    ``cols`` and ``vals`` streams, truncated to 16 hex characters.  The
    registry keys registrations by it and the snapshot store re-derives
    it to verify a restored payload, so both agree on the same bytes.
    """
    digest = hashlib.sha256()
    digest.update(f"{matrix.n_rows}x{matrix.n_cols}:".encode())
    for stream in (matrix.rows, matrix.cols, matrix.vals):
        arr = np.ascontiguousarray(stream)
        digest.update(str(arr.dtype).encode())
        digest.update(arr.tobytes())
    return digest.hexdigest()[:16]


@dataclass(frozen=True)
class TenantQuotas:
    """Per-tenant admission limits.

    Attributes:
        max_matrices: Registered matrices retained per tenant; the
            least-recently-used registration is evicted beyond this.
        max_inflight: Concurrent requests (queued + executing) one
            tenant may hold before submissions are shed with
            :class:`~repro.faults.errors.QuotaExceededError`.
    """

    max_matrices: int = 8
    max_inflight: int = 256

    def __post_init__(self) -> None:
        if self.max_matrices <= 0:
            raise ConfigurationError("max_matrices must be positive")
        if self.max_inflight <= 0:
            raise ConfigurationError("max_inflight must be positive")


@dataclass
class Registration:
    """One registered matrix and its serving counters."""

    fingerprint: str
    matrix: object
    tenant: str
    registered_at: float = field(default_factory=time.time)
    requests_served: int = 0
    batches_served: int = 0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def record_batch(self, k: int) -> None:
        """Count one served batch of ``k`` requests.

        Locked: two batches of one lane may finish at once on two
        batch-execution threads.
        """
        with self._lock:
            self.requests_served += k
            self.batches_served += 1

    def describe(self) -> dict:
        """JSON-native summary for ``/stats``."""
        with self._lock:
            requests_served, batches_served = self.requests_served, self.batches_served
        return {
            "fingerprint": self.fingerprint,
            "n_rows": int(self.matrix.n_rows),
            "n_cols": int(self.matrix.n_cols),
            "nnz": int(self.matrix.nnz),
            "requests_served": requests_served,
            "batches_served": batches_served,
        }


class MatrixRegistry:
    """Fingerprint-keyed matrices plus one engine per tenant.

    Thread-safe: registration happens on the event loop while lookups
    also run inside executor threads during batch execution.
    """

    def __init__(
        self,
        config: TwoStepConfig | None = None,
        quotas: TenantQuotas | None = None,
        on_drop=None,
    ):
        """
        Args:
            config: Engine configuration every tenant engine is built
                from (resolved once, so all tenants run the same
                settings).
            quotas: Per-tenant limits; defaults to :class:`TenantQuotas`.
            on_drop: Optional ``on_drop(tenant, fingerprint)``, called
                outside the lock after a registration is unregistered
                or evicted, so per-matrix state elsewhere can go too.
        """
        self.config, _provenance = resolve_config(config)
        self.quotas = quotas or TenantQuotas()
        self._on_drop = on_drop
        self._lock = threading.Lock()
        self._matrices: dict[str, OrderedDict[str, Registration]] = {}
        self._engines: dict[str, TwoStepEngine] = {}
        self.evictions = 0

    def engine(self, tenant: str = "default") -> TwoStepEngine:
        """The tenant's engine (created through ``create_engine`` once)."""
        with self._lock:
            engine = self._engines.get(tenant)
            if engine is None:
                engine = self._engines[tenant] = create_engine(self.config)
            return engine

    def register(self, matrix, tenant: str = "default") -> str:
        """Register ``matrix`` for ``tenant``; returns its fingerprint.

        Idempotent: re-registering identical content refreshes LRU
        recency and returns the same fingerprint.  When the tenant is at
        ``max_matrices``, the least-recently-used registration is
        evicted first (and its cached plan dropped from the tenant
        engine).
        """
        fingerprint = matrix_fingerprint(matrix)
        evicted = []
        with self._lock:
            table = self._matrices.setdefault(tenant, OrderedDict())
            existing = table.get(fingerprint)
            if existing is not None:
                table.move_to_end(fingerprint)
                return fingerprint
            while len(table) >= self.quotas.max_matrices:
                old_fingerprint, old = table.popitem(last=False)
                self.evictions += 1
                self._forget_locked(tenant, old.matrix)
                evicted.append(old_fingerprint)
            table[fingerprint] = Registration(
                fingerprint=fingerprint,
                matrix=matrix,
                tenant=tenant,
            )
        for old_fingerprint in evicted:
            self._dropped(tenant, old_fingerprint)
        return fingerprint

    def get(self, fingerprint: str, tenant: str = "default") -> Registration:
        """The registration for ``fingerprint`` (refreshes LRU recency).

        Raises:
            UnknownMatrixError: Nothing registered under that
                fingerprint for this tenant.
        """
        with self._lock:
            table = self._matrices.get(tenant, {})
            registration = table.get(fingerprint)
            if registration is None:
                raise UnknownMatrixError(
                    f"no matrix registered under fingerprint {fingerprint!r} "
                    f"for tenant {tenant!r}"
                )
            table.move_to_end(fingerprint)
            return registration

    def unregister(self, fingerprint: str, tenant: str = "default") -> None:
        """Drop one registration and its cached plan.

        Raises:
            UnknownMatrixError: Nothing registered under that fingerprint.
        """
        with self._lock:
            table = self._matrices.get(tenant, {})
            registration = table.pop(fingerprint, None)
            if registration is None:
                raise UnknownMatrixError(
                    f"no matrix registered under fingerprint {fingerprint!r} "
                    f"for tenant {tenant!r}"
                )
            self._forget_locked(tenant, registration.matrix)
        self._dropped(tenant, fingerprint)

    def _dropped(self, tenant: str, fingerprint: str) -> None:
        if self._on_drop is not None:
            self._on_drop(tenant, fingerprint)

    def _forget_locked(self, tenant: str, matrix) -> None:
        """Drop a matrix's cached plan from the tenant engine (lock held)."""
        engine = self._engines.get(tenant)
        if engine is not None:
            engine.forget(matrix)

    # ------------------------------------------------------------------
    # Snapshot support
    # ------------------------------------------------------------------

    def snapshot_entries(self) -> list:
        """Stable ``[(tenant, fingerprint, matrix), ...]`` for snapshotting."""
        with self._lock:
            return [
                (tenant, fingerprint, registration.matrix)
                for tenant, table in sorted(self._matrices.items())
                for fingerprint, registration in table.items()
            ]

    def restore(self, matrix, tenant: str, expected_fingerprint: str | None = None) -> str:
        """Re-register a matrix from a snapshot payload.

        The content fingerprint is recomputed from the restored streams;
        when the snapshot manifest's fingerprint disagrees the payload
        did not round-trip and the entry must be quarantined.

        Raises:
            SnapshotCorruptError: Recomputed fingerprint differs from
                ``expected_fingerprint``.
        """
        fingerprint = self.register(matrix, tenant)
        if expected_fingerprint and fingerprint != expected_fingerprint:
            self.unregister(fingerprint, tenant)
            raise SnapshotCorruptError(
                f"restored matrix fingerprints to {fingerprint!r}, "
                f"snapshot manifest says {expected_fingerprint!r}"
            )
        return fingerprint

    def tenants(self) -> tuple:
        """Registered tenant names, sorted."""
        with self._lock:
            return tuple(sorted(self._matrices))

    def engines(self) -> tuple:
        """Every instantiated engine as ``(tenant, engine)``, by tenant."""
        with self._lock:
            return tuple(sorted(self._engines.items()))

    def stats(self) -> dict:
        """Per-tenant registry statistics for ``/stats``."""
        with self._lock:
            out = {
                "evictions": self.evictions,
                "quotas": {
                    "max_matrices": self.quotas.max_matrices,
                    "max_inflight": self.quotas.max_inflight,
                },
                "tenants": {},
            }
            for tenant, table in sorted(self._matrices.items()):
                engine = self._engines.get(tenant)
                out["tenants"][tenant] = {
                    "matrices": [reg.describe() for reg in table.values()],
                    "plan_cache": (
                        engine.plan_cache_stats if engine is not None else None
                    ),
                }
            return out


__all__ = [
    "MatrixRegistry",
    "Registration",
    "TenantQuotas",
    "matrix_fingerprint",
]
