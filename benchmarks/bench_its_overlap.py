"""Section 5.2: Iteration-overlapped Two-Step (ITS) gains.

Measures, on a live iterative run (PageRank-style power iterations):

* off-chip traffic saved by keeping y_i = x_{i+1} on chip;
* the cycle-level speedup from overlapping step 2 of iteration i with
  step 1 of iteration i+1;

and reports the paper-scale throughput consequence (Table 2's TS vs ITS
sustained numbers derive from exactly this overlap).
"""

import numpy as np

from repro.analysis.reporting import format_bytes, format_table
from repro.core.config import TwoStepConfig
from repro.core.design_points import ITS_ASIC, TS_ASIC
from repro.core.its import ITSEngine, plain_iteration_traffic
from repro.core.perf import estimate_performance
from repro.core.twostep import TwoStepEngine
from repro.generators.erdos_renyi import erdos_renyi_graph

from benchmarks._util import emit

N_NODES = 60_000
AVG_DEGREE = 3.0
ITERATIONS = 8


def run_its():
    graph = erdos_renyi_graph(N_NODES, AVG_DEGREE, seed=52)
    engine = ITSEngine(TwoStepEngine(TwoStepConfig(segment_width=6000, q=4)))
    x0 = np.full(N_NODES, 1.0 / N_NODES)
    _, report = engine.run_iterations(graph, x0, ITERATIONS)
    return report


def render() -> str:
    report = run_its()
    plain = plain_iteration_traffic(report.per_iteration)
    saved = plain.total_bytes - report.traffic.total_bytes
    rows = [
        ["iterations", ITERATIONS, ""],
        ["plain TS traffic", format_bytes(plain.total_bytes), ""],
        ["ITS traffic", format_bytes(report.traffic.total_bytes), ""],
        ["saved (x/y round trips)", format_bytes(saved), "2 N vb per interior iteration"],
        ["cycle speedup from overlap", f"{report.cycle_speedup:.2f}x", "up to 2x"],
    ]
    table = format_table(["quantity", "measured", "paper"], rows,
                         title="ITS overlap measurement (simulation scale)")
    # Paper-scale throughput consequence.
    n, nnz = 10**9, 3 * 10**9
    ts = estimate_performance(TS_ASIC, n, nnz)
    its = estimate_performance(ITS_ASIC, n, nnz)
    extra = (
        f"\npaper scale (1B nodes, degree 3): TS {ts.gteps:.1f} GTEPS -> "
        f"ITS {its.gteps:.1f} GTEPS ({its.gteps / ts.gteps:.2f}x); "
        f"Table 2 sustained: 432 -> 729 GB/s ({729 / 432:.2f}x)"
    )
    return table + extra


def test_its_overlap(benchmark):
    report = benchmark(run_its)
    emit("its_overlap", render())
    plain = plain_iteration_traffic(report.per_iteration)
    assert report.traffic.total_bytes < plain.total_bytes
    assert 1.0 < report.cycle_speedup <= 2.0
    n, nnz = 10**9, 3 * 10**9
    ts = estimate_performance(TS_ASIC, n, nnz)
    its = estimate_performance(ITS_ASIC, n, nnz)
    assert 1.2 < its.gteps / ts.gteps <= 2.0
