"""SpMV-as-a-service: async serving over the Two-Step engine.

The serving layer turns the batch-oriented engine into a long-lived
service: matrices are registered once by content fingerprint, concurrent
single-RHS requests are coalesced by a dynamic micro-batching queue
into :meth:`run_many` calls (an idle lane dispatches at once; requests
arriving while a batch executes coalesce behind it, up to max-batch or
max-delay), admission
control sheds load past a bounded queue, and every tenant gets its own
engine and plan cache, with LRU eviction and quotas.

Resilience is first-class: requests carry deadlines (enforced at
admission and batch formation), a failed batch gets bounded jittered
retries, each (tenant, matrix) lane has a circuit breaker that rejects
after repeated failures until a probe succeeds, the registry can be
snapshotted crash-safely and restored with corrupted entries
quarantined, and a chaos harness drives fault storms against all of it.

Layering:

* :mod:`repro.serving.registry` -- fingerprints, tenants, quotas, LRU.
* :mod:`repro.serving.batching` -- the micro-batching queue.
* :mod:`repro.serving.resilience` -- deadlines, breakers, retry policy.
* :mod:`repro.serving.snapshot` -- crash-safe registry snapshots.
* :mod:`repro.serving.server` -- the transport-agnostic core.
* :mod:`repro.serving.http` -- stdlib asyncio HTTP/1.1 frontend.
* :mod:`repro.serving.loadgen` -- open-loop QPS sweeps for benchmarks.
* :mod:`repro.serving.chaos` -- fault storms + resolution invariants.

Quickstart (in-process)::

    import asyncio
    from repro.serving import BatchPolicy, SpMVServer

    server = SpMVServer(policy=BatchPolicy(max_batch=16, max_delay_s=0.002))
    fp = server.register(matrix)

    async def main():
        result = await server.submit(fp, x, deadline=0.050)  # 50ms budget
        return result.y  # bit-identical to engine.run(matrix, x)

    y = asyncio.run(main())

Or over HTTP: ``repro serve graph.npz --port 8787 --state-dir state/``.
"""

from repro.serving.batching import BatchPolicy, BatchResult, MicroBatcher
from repro.serving.chaos import ChaosReport, fault_storm, run_chaos
from repro.serving.loadgen import LoadReport, run_open_loop
from repro.serving.registry import MatrixRegistry, Registration, TenantQuotas, matrix_fingerprint
from repro.serving.resilience import CircuitBreaker, Deadline, ResiliencePolicy
from repro.serving.server import ServeResult, SpMVServer
from repro.serving.snapshot import SnapshotStore

__all__ = [
    "BatchPolicy",
    "BatchResult",
    "ChaosReport",
    "CircuitBreaker",
    "Deadline",
    "LoadReport",
    "MatrixRegistry",
    "MicroBatcher",
    "Registration",
    "ResiliencePolicy",
    "ServeResult",
    "SnapshotStore",
    "SpMVServer",
    "TenantQuotas",
    "fault_storm",
    "matrix_fingerprint",
    "run_chaos",
    "run_open_loop",
]
