"""Telemetry overhead: the observability layer must be effectively free.

Three claims are measured on the vectorized Two-Step hot path:

* **Enabled, large** -- spans + metrics collection adds < 3% wall time
  to an SpMV over an ER graph with N = 2e5, d = 3 at 8192-column
  stripes (plan cache warm, so the measured region is the value
  datapath the instrumentation wraps).
* **Enabled, small** -- on an ER graph with N = 1e4, d = 3 in the
  default one-stripe geometry the kernel is short, so the fixed
  per-run cost (session, spans, publish) shows: it must stay under
  ``MAX_SMALL_OVERHEAD_PCT``.

In both cases runs with telemetry on and off alternate one by one
(which side goes first alternates too) and each side keeps its fastest
run, so a burst of host noise hits both sides alike and cannot decide
it.
* **Disabled** -- the instrumented code collapses to one ContextVar read
  plus an ``is None`` test per site; a microbenchmark pins the cost of a
  disabled ``span()`` call in nanoseconds to document the "~0%" path.

All numbers land in ``BENCH_telemetry.json`` for CI.
"""

from __future__ import annotations

import time

import numpy as np

from repro.analysis.reporting import format_table
from repro.core.config import TwoStepConfig
from repro.core.twostep import TwoStepEngine
from repro.generators.erdos_renyi import erdos_renyi_graph
from repro.telemetry import span

from benchmarks._util import emit, emit_json

N_NODES = 200_000
AVG_DEGREE = 3.0
SEGMENT_WIDTH = 8192
Q = 4
PAIRS = 15
MAX_OVERHEAD_PCT = 3.0

SMALL_NODES = 10_000
SMALL_PAIRS = 3000
MAX_SMALL_OVERHEAD_PCT = 35.0


def _best_alternating(on, off, graph, x, pairs: int) -> tuple:
    """Fastest ``run`` of each engine over ``pairs`` alternating runs."""
    best = {on: float("inf"), off: float("inf")}
    for pair in range(pairs):
        for engine in (on, off) if pair % 2 == 0 else (off, on):
            start = time.perf_counter()
            engine.run(graph, x)
            best[engine] = min(best[engine], time.perf_counter() - start)
    return best[on], best[off]


def measure_small() -> dict:
    """Per-run overhead on a small matrix in the default geometry."""
    graph = erdos_renyi_graph(SMALL_NODES, AVG_DEGREE, seed=42)
    x = np.random.default_rng(42).uniform(size=graph.n_cols)
    on = TwoStepEngine(TwoStepConfig(backend="vectorized", telemetry=True))
    off = TwoStepEngine(TwoStepConfig(backend="vectorized", telemetry=False))
    r_on, r_off = on.run(graph, x), off.run(graph, x)
    assert np.array_equal(r_on.y, r_off.y)
    assert r_on.report.n_stripes == 1
    t_on, t_off = _best_alternating(on, off, graph, x, SMALL_PAIRS)
    return {
        "graph": {"n_nodes": graph.n_rows, "avg_degree": AVG_DEGREE, "nnz": graph.nnz},
        "pairs": SMALL_PAIRS,
        "enabled_wall_s": t_on,
        "disabled_wall_s": t_off,
        "overhead_us": (t_on - t_off) * 1e6,
        "overhead_pct": (t_on - t_off) / t_off * 100.0,
        "max_overhead_pct": MAX_SMALL_OVERHEAD_PCT,
    }


def measure() -> dict:
    graph = erdos_renyi_graph(N_NODES, AVG_DEGREE, seed=42)
    x = np.random.default_rng(42).uniform(size=graph.n_cols)
    on = TwoStepEngine(
        TwoStepConfig(segment_width=SEGMENT_WIDTH, q=Q, backend="vectorized", telemetry=True)
    )
    off = TwoStepEngine(
        TwoStepConfig(segment_width=SEGMENT_WIDTH, q=Q, backend="vectorized", telemetry=False)
    )
    # Warm plan caches and code paths before timing.
    r_on, r_off = on.run(graph, x), off.run(graph, x)
    assert np.array_equal(r_on.y, r_off.y)

    t_on, t_off = _best_alternating(on, off, graph, x, PAIRS)
    overhead_pct = (t_on - t_off) / t_off * 100.0

    # Disabled fast path, in isolation: ns per no-op span() call.
    calls = 200_000
    start = time.perf_counter()
    for _ in range(calls):
        with span("noop"):
            pass
    ns_per_disabled_span = (time.perf_counter() - start) / calls * 1e9

    return {
        "graph": {"n_nodes": graph.n_rows, "avg_degree": AVG_DEGREE, "nnz": graph.nnz},
        "pairs": PAIRS,
        "enabled_wall_s": t_on,
        "disabled_wall_s": t_off,
        "overhead_pct": overhead_pct,
        "max_overhead_pct": MAX_OVERHEAD_PCT,
        "ns_per_disabled_span": ns_per_disabled_span,
        "spans_per_run": len(r_on.telemetry.spans),
        "bit_identical": True,
        "small": measure_small(),
    }


def render(payload: dict) -> str:
    small = payload["small"]
    rows = [
        [
            "graph",
            f"ER N={payload['graph']['n_nodes']:,} d={AVG_DEGREE:g} "
            f"(nnz {payload['graph']['nnz']:,})",
            "",
        ],
        [
            "telemetry on / off",
            f"{payload['enabled_wall_s'] * 1e3:,.1f} / "
            f"{payload['disabled_wall_s'] * 1e3:,.1f} ms",
            f"best of {payload['pairs']} alternating runs each",
        ],
        [
            "overhead",
            f"{payload['overhead_pct']:+.2f}%",
            f"< {MAX_OVERHEAD_PCT:g}%",
        ],
        [
            "small graph",
            f"ER N={small['graph']['n_nodes']:,} d={AVG_DEGREE:g}, one stripe",
            "",
        ],
        [
            "telemetry on / off",
            f"{small['enabled_wall_s'] * 1e6:,.0f} / "
            f"{small['disabled_wall_s'] * 1e6:,.0f} us",
            f"best of {small['pairs']} alternating runs each",
        ],
        [
            "overhead",
            f"{small['overhead_pct']:+.1f}% ({small['overhead_us']:.0f} us/run)",
            f"< {MAX_SMALL_OVERHEAD_PCT:g}%",
        ],
        [
            "disabled span() cost",
            f"{payload['ns_per_disabled_span']:.0f} ns/call",
            "ContextVar read + is-None",
        ],
        ["spans per run", str(payload["spans_per_run"]), "first run, cold plan cache"],
        ["results", "bit-identical", "zero semantic drift"],
    ]
    return format_table(
        ["quantity", "measured", "expectation"],
        rows,
        title="Telemetry overhead (tracing spans + metrics vs disabled)",
    )


def test_telemetry_overhead():
    payload = measure()
    emit("telemetry_overhead", render(payload))
    emit_json("telemetry", payload)
    assert payload["overhead_pct"] < MAX_OVERHEAD_PCT
    assert payload["small"]["overhead_pct"] < MAX_SMALL_OVERHEAD_PCT
    # The disabled path must stay in no-op territory (well under 10 us).
    assert payload["ns_per_disabled_span"] < 10_000


if __name__ == "__main__":
    payload = measure()
    print(render(payload))
    path = emit_json("telemetry", payload)
    print(f"wrote {path}")
