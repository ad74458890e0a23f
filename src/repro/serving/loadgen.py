"""Open-loop load generator for the serving layer.

Drives an in-process :class:`~repro.serving.server.SpMVServer` with a
paced open-loop arrival process (requests launched on a fixed schedule
regardless of completions -- the honest way to measure a queueing
system: closed-loop generators self-throttle and hide queueing delay).
Reports completion counts, shed counts, achieved throughput, latency
percentiles and mean coalesced batch size per offered-QPS level.

Used by ``benchmarks/bench_serving.py`` to produce ``BENCH_serving.json``
and by the CI smoke leg.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import asdict, dataclass

import numpy as np

from repro.faults.errors import DeadlineExceededError, OverloadedError
from repro.serving.server import SpMVServer


@dataclass(frozen=True)
class LoadReport:
    """Result of one offered-QPS level.

    ``rejected`` counts admission-control sheds (429s),
    ``deadline_exceeded`` counts requests shed or dropped past their
    deadline budget (504s); both are *intentional* load responses,
    distinct from ``errors``.
    """

    offered_qps: float
    n_requests: int
    completed: int
    rejected: int
    errors: int
    duration_s: float
    achieved_qps: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    mean_ms: float
    mean_batch: float
    deadline_exceeded: int = 0

    def to_dict(self) -> dict:
        return asdict(self)


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending-sorted sequence."""
    if not sorted_values:
        return float("nan")
    rank = max(0, min(len(sorted_values) - 1, int(round(q * (len(sorted_values) - 1)))))
    return float(sorted_values[rank])


async def run_open_loop(
    server: SpMVServer,
    fingerprint: str,
    xs,
    offered_qps: float,
    n_requests: int,
    tenant: str = "default",
    deadline_s: float | None = None,
) -> LoadReport:
    """Fire ``n_requests`` at ``offered_qps`` with uniform pacing.

    Args:
        server: The in-process server under test.
        fingerprint: Registered matrix to exercise.
        xs: Sequence of RHS vectors, cycled over deterministically.
        offered_qps: Arrival rate; request ``i`` launches at
            ``i / offered_qps`` seconds after the start.
        n_requests: Total arrivals.
        tenant: Tenant to issue under.
        deadline_s: Per-request deadline budget each submission carries
            (None for no deadline).  Under overload this turns queueing
            delay into fast 504-style sheds, which is exactly what
            ``bench_resilience.py`` measures.
    """
    latencies: list = []
    batch_sizes: list = []
    rejected = 0
    errors = 0
    deadline_exceeded = 0
    start = time.perf_counter()
    interval = 1.0 / offered_qps

    async def one(i: int) -> None:
        nonlocal rejected, errors, deadline_exceeded
        delay = start + i * interval - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        t0 = time.perf_counter()
        try:
            result = await server.submit(
                fingerprint, xs[i % len(xs)], tenant=tenant, deadline=deadline_s
            )
        except DeadlineExceededError:
            deadline_exceeded += 1
        except OverloadedError:
            rejected += 1
        except Exception:
            errors += 1
        else:
            latencies.append(time.perf_counter() - t0)
            batch_sizes.append(result.batch_size)

    await asyncio.gather(*(one(i) for i in range(n_requests)))
    duration = time.perf_counter() - start
    latencies.sort()
    completed = len(latencies)
    return LoadReport(
        offered_qps=offered_qps,
        n_requests=n_requests,
        completed=completed,
        rejected=rejected,
        errors=errors,
        duration_s=round(duration, 6),
        achieved_qps=round(completed / duration, 3) if duration > 0 else 0.0,
        p50_ms=round(percentile(latencies, 0.50) * 1e3, 3),
        p95_ms=round(percentile(latencies, 0.95) * 1e3, 3),
        p99_ms=round(percentile(latencies, 0.99) * 1e3, 3),
        mean_ms=round(float(np.mean(latencies)) * 1e3, 3) if latencies else float("nan"),
        mean_batch=round(float(np.mean(batch_sizes)), 3) if batch_sizes else float("nan"),
        deadline_exceeded=deadline_exceeded,
    )


__all__ = ["LoadReport", "percentile", "run_open_loop"]
