"""Serving layer: micro-batching throughput and latency under load.

Two measurements, archived as ``BENCH_serving.json``:

* **Throughput**: a closed burst of concurrent single-RHS requests
  through the micro-batching server versus the same burst through a
  naive one-request-per-``run`` dispatch (``max_batch=1``: identical
  asyncio machinery, no coalescing).  Dynamic batching amortises the
  per-request dispatch overhead (event-loop hops, executor handoff,
  validation, metrics) and the matrix-side index traffic (column ids,
  merge permutation, run boundaries -- read once per batch instead of
  once per request), so the acceptance bar is a >= 2x throughput win;
  CI smoke-gates a looser 1.5x.  Naive and batched bursts alternate
  (which side goes first alternates too) over ``PAIRS`` pairs, and the
  speedup is the ratio of the two medians, so host noise during one
  burst cannot decide it.
* **Latency**: an open-loop offered-QPS sweep (paced arrivals, no
  self-throttling) reporting p50/p95/p99 latency, the mean coalesced
  batch size and how many batches ran inline on the event-loop thread
  (a lone request on an idle server) per level.

The matrix is sized for the high-QPS serving regime (sub-millisecond
single-request runs), where coalescing has something to amortise.  At
much larger matrices a request is dominated by its own value-stream
traffic, which scales with k no matter how requests are grouped -- the
bit-identity contract forbids re-associated (pairwise/matmul) batch
reductions, so batching approaches parity there rather than a win.

Every served result is checked bit-identical to a direct
``engine.run`` on the same vector before any number is reported.
"""

import asyncio
import statistics
import time

import numpy as np

from repro.analysis.reporting import format_table
from repro.generators.erdos_renyi import erdos_renyi_graph
from repro.serving import BatchPolicy, SpMVServer, matrix_fingerprint, run_open_loop

from benchmarks._util import emit, emit_json

N_NODES = 10_000
AVG_DEGREE = 3.0
SEGMENT_WIDTH = 8192
BURST = 192
MAX_BATCH = 32
MAX_DELAY_S = 0.002
QPS_LEVELS = (250.0, 500.0, 1000.0, 2000.0)
SWEEP_REQUESTS = 150
MIN_SPEEDUP = 2.0
CI_SMOKE_SPEEDUP = 1.5
PAIRS = 11  # alternating naive/batched bursts; medians are compared


def _server(max_batch: int) -> tuple:
    graph = erdos_renyi_graph(N_NODES, AVG_DEGREE, seed=13)
    server = SpMVServer(
        policy=BatchPolicy(
            max_batch=max_batch, max_delay_s=MAX_DELAY_S, max_queue=4 * BURST
        )
    )
    fingerprint = server.register(graph)
    return server, graph, fingerprint


def _burst_qps(server, graph, fingerprint, xs) -> tuple:
    """Throughput and mean batch size for one closed concurrent burst."""

    async def main():
        # Warm the plan/symbolic caches so the burst times the steady state.
        await server.submit(fingerprint, xs[0])
        await server.close()
        t0 = time.perf_counter()
        results = await asyncio.gather(
            *(server.submit(fingerprint, x) for x in xs)
        )
        wall = time.perf_counter() - t0
        await server.close()
        return results, wall

    results, wall = asyncio.run(main())
    engine = server.registry.engine()
    for x, result in zip(xs, results):
        direct, _ = engine.run(graph, x)
        assert np.array_equal(result.y, direct), "served result not bit-identical"
    mean_batch = float(np.mean([r.batch_size for r in results]))
    return len(xs) / wall, mean_batch


def measure() -> dict:
    rng = np.random.default_rng(29)
    xs = [rng.uniform(size=N_NODES) for _ in range(BURST)]

    servers = {"batched": _server(MAX_BATCH), "naive": _server(1)}
    runs = {"batched": [], "naive": []}
    for pair in range(PAIRS):
        for side in ("naive", "batched") if pair % 2 == 0 else ("batched", "naive"):
            runs[side].append(_burst_qps(*servers[side], xs))
    batched_qps = [qps for qps, _mean in runs["batched"]]
    naive_qps = [qps for qps, _mean in runs["naive"]]
    median_batched = statistics.median(batched_qps)
    median_naive = statistics.median(naive_qps)

    sweep_server, graph_s, fingerprint_s = _server(MAX_BATCH)

    async def sweep_main():
        levels = []
        for qps in QPS_LEVELS:
            inline = sweep_server.stats()["queue"]["inline"]
            report = await run_open_loop(
                sweep_server, fingerprint_s, xs, qps, SWEEP_REQUESTS
            )
            await sweep_server.close()
            inline = sweep_server.stats()["queue"]["inline"] - inline
            levels.append({**report.to_dict(), "inline": inline})
        return levels

    levels = asyncio.run(sweep_main())

    async def shutdown_all():
        # close() only quiesces; shutdown() also ends the executor
        # threads, which would otherwise outlive the benchmark.
        for server in [server for server, _g, _f in servers.values()] + [sweep_server]:
            await server.shutdown()

    asyncio.run(shutdown_all())
    return {
        "throughput": {
            "burst": BURST,
            "pairs": PAIRS,
            "batched_qps": round(median_batched, 1),
            "naive_qps": round(median_naive, 1),
            "speedup": round(median_batched / median_naive, 2),
            "pair_speedups": [
                round(b / n, 2) for b, n in zip(batched_qps, naive_qps)
            ],
            "mean_batch": round(
                statistics.mean(mean for _qps, mean in runs["batched"]), 2
            ),
        },
        "sweep": levels,
    }


def render(results: dict) -> str:
    t = results["throughput"]
    head = (
        f"closed burst of {t['burst']}, median of {t['pairs']} alternating "
        f"pairs: batched {t['batched_qps']:,.0f} req/s "
        f"(mean batch {t['mean_batch']:g}) vs naive {t['naive_qps']:,.0f} req/s "
        f"-> {t['speedup']:.2f}x (gate >= {MIN_SPEEDUP:g}x)\n"
        f"per-pair speedups: {', '.join(f'{r:.2f}' for r in t['pair_speedups'])}"
    )
    rows = [
        [
            f"{r['offered_qps']:g}",
            f"{r['achieved_qps']:g}",
            str(r["completed"]),
            str(r["rejected"]),
            f"{r['p50_ms']:.2f}",
            f"{r['p95_ms']:.2f}",
            f"{r['p99_ms']:.2f}",
            f"{r['mean_batch']:g}",
            str(r["inline"]),
        ]
        for r in results["sweep"]
    ]
    table = format_table(
        [
            "offered qps", "achieved", "ok", "shed",
            "p50 ms", "p95 ms", "p99 ms", "batch", "inline",
        ],
        rows,
        title=(
            f"Open-loop sweep: ER N={N_NODES:,} d={AVG_DEGREE:g}, "
            f"max_batch={MAX_BATCH}, max_delay={MAX_DELAY_S * 1e3:g}ms"
        ),
    )
    return head + "\n\n" + table


def to_payload(results: dict) -> dict:
    """Machine-readable record for ``BENCH_serving.json``."""
    return {
        "graph": {"n_nodes": N_NODES, "avg_degree": AVG_DEGREE},
        "policy": {
            "max_batch": MAX_BATCH,
            "max_delay_s": MAX_DELAY_S,
        },
        "min_speedup": MIN_SPEEDUP,
        "ci_smoke_speedup": CI_SMOKE_SPEEDUP,
        **results,
    }


def test_serving_batching_throughput():
    results = measure()
    emit("serving", render(results))
    emit_json("serving", to_payload(results))
    t = results["throughput"]
    assert t["speedup"] >= MIN_SPEEDUP, (
        f"batched serving only {t['speedup']:.2f}x naive dispatch "
        f"(< {MIN_SPEEDUP:g}x)"
    )
    assert t["mean_batch"] > 1.0, "burst never coalesced"
    for level in results["sweep"]:
        assert level["errors"] == 0


if __name__ == "__main__":
    results = measure()
    print(render(results))
    path = emit_json("serving", to_payload(results))
    print(f"wrote {path}")
