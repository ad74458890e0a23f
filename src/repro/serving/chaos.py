"""Serving-level chaos harness: fault storms with resolution invariants.

Drives an in-process :class:`~repro.serving.server.SpMVServer` with a
burst of concurrent requests while a deterministic
:class:`~repro.faults.injection.FaultPlan` fires at the serving
injection sites (:data:`~repro.faults.injection.SERVING_SITES`:
``batch``, ``executor``, ``registry.io``, ``http``), then asserts the
two invariants a resilient serving layer owes its clients:

1. **Every request resolves.**  Each submission ends in a result or a
   typed error within a bound -- nothing hangs and nothing is silently
   dropped.  Each request is wrapped in ``asyncio.wait_for``; a timeout
   is recorded as ``hung`` and fails the run.

2. **No returned result is numerically wrong.**  Every 200-path result
   is compared bit-for-bit against a reference oracle computed up
   front.  Injected faults may slow requests, shed them, fail them with
   a typed error or force retries -- but a retried run must return
   *exactly* the oracle's bytes (mismatches are recorded and fail the
   run).

:func:`fault_storm` builds storms deterministically from a seed, so a
failing scenario replays exactly from its (sites, seed, n_faults)
triple.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass, field

import numpy as np

from repro.faults.errors import FaultError
from repro.faults.injection import ANY_INDEX, SERVING_SITES, FaultPlan, FaultSpec

#: Fault kinds a storm draws from.  ``"delay"`` exercises deadline and
#: queueing paths; the raising kinds exercise retries, the breaker and
#: error mapping.
_STORM_KINDS = ("raise", "kill", "corrupt", "delay")


def fault_storm(
    sites=SERVING_SITES,
    seed: int = 0,
    n_faults: int = 8,
    max_index: int = 16,
    delay_s: float = 0.005,
    any_index_fraction: float = 0.25,
) -> FaultPlan:
    """Build a deterministic storm of faults across serving sites.

    Args:
        sites: Injection sites to draw from.
        seed: RNG seed; the same (sites, seed, n_faults) always yields
            the same storm.
        n_faults: Number of fault specs in the plan.
        max_index: Specs target indices in ``[0, max_index)``.
        delay_s: Sleep for ``"delay"`` faults (keep small: storms run in
            tests).
        any_index_fraction: Fraction of specs matching any index rather
            than one -- these hit whichever request arrives first, which
            shakes out ordering assumptions.
    """
    rng = random.Random(seed)
    specs = []
    for _ in range(n_faults):
        site = rng.choice(tuple(sites))
        kind = rng.choice(_STORM_KINDS)
        index = (
            ANY_INDEX
            if rng.random() < any_index_fraction
            else rng.randrange(max_index)
        )
        specs.append(
            FaultSpec(
                site=site,
                kind=kind,
                index=index,
                times=1,
                delay_s=delay_s,
                message=f"storm fault at {site}",
            )
        )
    return FaultPlan(*specs)


@dataclass
class ChaosReport:
    """Outcome of one chaos run; ``ok`` is the run's pass/fail verdict.

    Every submitted request lands in exactly one bucket: ``completed``
    (resolved with a result), one of the ``failed`` counters (resolved
    with a typed error -- an acceptable answer under faults), ``hung``
    (did not resolve within the bound -- always a failure), with
    ``mismatched`` counting completed results that were not bit-identical
    to the oracle (always a failure).
    """

    submitted: int = 0
    completed: int = 0
    failed: dict = field(default_factory=dict)
    hung: int = 0
    mismatched: int = 0
    untyped_errors: int = 0
    fired: list = field(default_factory=list)

    @property
    def resolved(self) -> int:
        return self.completed + sum(self.failed.values()) + self.untyped_errors

    @property
    def ok(self) -> bool:
        """True when both invariants held: all resolved, all bit-exact."""
        return (
            self.hung == 0
            and self.mismatched == 0
            and self.untyped_errors == 0
            and self.resolved == self.submitted
        )

    def to_dict(self) -> dict:
        return {
            "submitted": self.submitted,
            "completed": self.completed,
            "failed": dict(self.failed),
            "hung": self.hung,
            "mismatched": self.mismatched,
            "untyped_errors": self.untyped_errors,
            "resolved": self.resolved,
            "ok": self.ok,
            "fired": list(self.fired),
        }


async def run_chaos(
    server,
    fingerprint: str,
    xs,
    oracle_ys,
    plan: FaultPlan,
    n_requests: int = 32,
    tenant: str = "default",
    deadline_s: float | None = None,
    timeout_s: float = 30.0,
) -> ChaosReport:
    """Fire ``n_requests`` concurrently under ``plan`` and audit outcomes.

    The plan must be armed by the caller (``with inject_faults(plan):``)
    so one storm can span registration, serving and snapshot phases.

    Args:
        server: In-process :class:`~repro.serving.server.SpMVServer`.
        fingerprint: Registered matrix to exercise.
        xs: RHS vectors, cycled over; request ``i`` uses
            ``xs[i % len(xs)]``.
        oracle_ys: Reference results aligned with ``xs`` -- computed
            with the reference backend *before* the storm; completed
            results must match them bit for bit.
        plan: The (already armed) fault storm.
        n_requests: Concurrent submissions.
        tenant: Tenant to issue under.
        deadline_s: Optional per-request deadline budget.
        timeout_s: Per-request resolution bound; exceeding it counts as
            ``hung`` and fails the run.
    """
    report = ChaosReport(submitted=n_requests)

    async def one(i: int) -> None:
        x = xs[i % len(xs)]
        try:
            result = await asyncio.wait_for(
                server.submit(fingerprint, x, tenant=tenant, deadline=deadline_s),
                timeout=timeout_s,
            )
        except asyncio.TimeoutError:
            report.hung += 1
        except FaultError as exc:
            name = type(exc).__name__
            report.failed[name] = report.failed.get(name, 0) + 1
        except Exception:
            report.untyped_errors += 1
        else:
            expected = oracle_ys[i % len(oracle_ys)]
            if (
                result.y.shape == expected.shape
                and result.y.dtype == expected.dtype
                and np.array_equal(
                    result.y.view(np.uint8), expected.view(np.uint8)
                )
            ):
                report.completed += 1
            else:
                report.mismatched += 1

    await asyncio.gather(*(one(i) for i in range(n_requests)))
    report.fired = list(plan.fired)
    return report


__all__ = ["ChaosReport", "fault_storm", "run_chaos"]
