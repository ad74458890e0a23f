"""Native JIT backend: warm-iteration speedup and prange scaling.

The ``native`` backend fuses the warm plan-replay pipeline (stripe
gather-multiply, merge segment-sum, injection, scatter) into single
``@njit(cache=True)`` loops over the precomputed ``StripePlan`` /
``Step2Symbolic`` arrays, eliminating per-call NumPy dispatch and the
materialized intermediate of the permutation gather.  This bench:

* always checks native output vectors **and traffic ledgers** are
  bit-identical to the reference oracle (fallback tier included);
* times warm PageRank/CG iterations native vs vectorized, gating a
  >= 2x speedup -- but only when Numba is actually importable (the
  numpy-fallback tier is, by construction, the vectorized path);
* sweeps ``n_jobs`` for in-node ``prange`` scaling, the only
  multi-threaded execution the engine has: native must beat vectorized
  at ``n_jobs >= 2`` on a multi-core box,
  and on single-core/Numba-less hosts the result records *why* the gate
  did not apply instead of failing.

Artifacts: ``results/bench_native_kernels.txt`` + ``BENCH_native.json``.
"""

import os
import time

import numpy as np

from repro.analysis.reporting import format_table
from repro.apps.conjugate_gradient import spd_system
from repro.apps.pagerank import stochastic_matrix
from repro.backends.native import numba_available
from repro.core.config import TwoStepConfig
from repro.core.twostep import TwoStepEngine
from repro.generators.erdos_renyi import erdos_renyi_graph

from benchmarks._util import emit, emit_json

N_NODES = 150_000
AVG_DEGREE = 3.0
SEGMENT_WIDTH = 8192
Q = 4
WARM_ITERATIONS = 10
DAMPING = 0.85
MIN_SPEEDUP = 2.0
JOB_COUNTS = (1, 2, 4)

CHECK_N = 5_000
CHECK_DEGREE = 4.0


def _engine(backend: str, n_jobs: int | None = None) -> TwoStepEngine:
    return TwoStepEngine(
        TwoStepConfig(
            segment_width=SEGMENT_WIDTH, q=Q, backend=backend, n_jobs=n_jobs
        )
    )


def _workloads():
    """(name, matrix, x0, update) per iterative client."""
    graph = erdos_renyi_graph(N_NODES, AVG_DEGREE, seed=42)
    transition = stochastic_matrix(graph)
    n = transition.n_rows
    pagerank = (
        "pagerank",
        transition,
        np.full(n, 1.0 / n),
        lambda y: DAMPING * y + (1.0 - DAMPING) / n,
    )
    system, b = spd_system(N_NODES, avg_degree=AVG_DEGREE, seed=42)
    cg = ("cg", system, b.copy(), lambda y: b - 0.5 * y)
    return [pagerank, cg]


def _warm_run(engine, matrix, x0, update):
    """One cold iteration (plan build + JIT compile), then timed warm loop."""
    x = update(engine.run(matrix, x0).y)
    start = time.perf_counter()
    for _ in range(WARM_ITERATIONS):
        x = update(engine.run(matrix, x).y)
    return time.perf_counter() - start, x


def check_bit_identity() -> dict:
    """Native vs reference oracle: vectors and ledgers, run + run_many."""
    graph = erdos_renyi_graph(CHECK_N, CHECK_DEGREE, seed=7)
    rng = np.random.default_rng(7)
    x = rng.uniform(-1.0, 1.0, size=graph.n_cols)
    X = rng.uniform(-1.0, 1.0, size=(graph.n_cols, 3))
    native = _engine("native")
    reference = _engine("reference")
    r_nat, r_ref = native.run(graph, x), reference.run(graph, x)
    b_nat, b_ref = native.run_many(graph, X), reference.run_many(graph, X)
    return {
        "n": CHECK_N,
        "kernel_tier": native.backend.kernel_tier,
        "run_bit_identical": bool(r_nat.y.tobytes() == r_ref.y.tobytes()),
        "batch_bit_identical": bool(b_nat.y.tobytes() == b_ref.y.tobytes()),
        "ledger_identical": bool(
            r_nat.report.traffic == r_ref.report.traffic
            and b_nat.report.traffic == b_ref.report.traffic
        ),
    }


def measure_warm() -> list:
    results = []
    for name, matrix, x0, update in _workloads():
        native_s, native_x = _warm_run(_engine("native"), matrix, x0, update)
        vec_s, vec_x = _warm_run(_engine("vectorized"), matrix, x0, update)
        results.append(
            {
                "workload": name,
                "nnz": matrix.nnz,
                "warm_iterations": WARM_ITERATIONS,
                "native_warm_s": native_s,
                "vectorized_warm_s": vec_s,
                "speedup": vec_s / native_s,
                "bit_identical": bool(native_x.tobytes() == vec_x.tobytes()),
            }
        )
    return results


def measure_scaling() -> list:
    """Native prange scaling vs the single-thread vectorized baseline."""
    name, matrix, x0, update = _workloads()[0]
    vec_s, vec_x = _warm_run(_engine("vectorized"), matrix, x0, update)
    rows = []
    for n_jobs in JOB_COUNTS:
        native_s, native_x = _warm_run(
            _engine("native", n_jobs=n_jobs), matrix, x0, update
        )
        rows.append(
            {
                "workload": name,
                "n_jobs": n_jobs,
                "native_warm_s": native_s,
                "vectorized_warm_s": vec_s,
                "speedup_vs_vectorized": vec_s / native_s,
                "bit_identical": bool(native_x.tobytes() == vec_x.tobytes()),
            }
        )
    return rows


def scaling_gate() -> tuple[bool, str]:
    """Whether the n_jobs>=2 speedup gate applies, and why not if not."""
    if not numba_available():
        return False, "numba not installed: native runs the numpy-fallback tier"
    cores = os.cpu_count() or 1
    if cores < 2:
        return False, f"single-core host (cpu_count={cores}): no prange headroom"
    return True, ""


def render(check: dict, warm: list, scaling: list, gate_reason: str) -> str:
    warm_rows = [
        [
            r["workload"],
            f"{r['vectorized_warm_s'] * 1e3:,.0f} ms",
            f"{r['native_warm_s'] * 1e3:,.0f} ms",
            f"{r['speedup']:.1f}x",
            "bit-identical" if r["bit_identical"] else "DIVERGED",
        ]
        for r in warm
    ]
    table = format_table(
        ["workload", "vectorized warm", "native warm", "speedup", "results"],
        warm_rows,
        title=(
            f"Native JIT backend [{check['kernel_tier']}]: "
            f"{WARM_ITERATIONS} warm iterations, ER N={N_NODES:,} "
            f"d={AVG_DEGREE:g} (gate >= {MIN_SPEEDUP:g}x when Numba present)"
        ),
    )
    scale_rows = [
        [
            str(r["n_jobs"]),
            f"{r['native_warm_s'] * 1e3:,.0f} ms",
            f"{r['speedup_vs_vectorized']:.2f}x",
            "bit-identical" if r["bit_identical"] else "DIVERGED",
        ]
        for r in scaling
    ]
    scale_table = format_table(
        ["n_jobs", "native warm", "vs vectorized", "results"],
        scale_rows,
        title="prange scaling (pagerank warm loop)"
        + (f" -- gate waived: {gate_reason}" if gate_reason else ""),
    )
    identity = (
        "bit-identity vs reference oracle: "
        f"run={'OK' if check['run_bit_identical'] else 'FAIL'} "
        f"batch={'OK' if check['batch_bit_identical'] else 'FAIL'} "
        f"ledgers={'OK' if check['ledger_identical'] else 'FAIL'}"
    )
    return f"{table}\n\n{scale_table}\n\n{identity}"


def to_payload(check: dict, warm: list, scaling: list, gate_reason: str) -> dict:
    """Machine-readable record for ``BENCH_native.json``."""
    return {
        "graph": {"n_nodes": N_NODES, "avg_degree": AVG_DEGREE},
        "warm_iterations": WARM_ITERATIONS,
        "numba_available": numba_available(),
        "kernel_tier": check["kernel_tier"],
        "bit_identity": check,
        "workloads": warm,
        "scaling": scaling,
        "min_speedup": MIN_SPEEDUP,
        "scaling_gate_applied": not gate_reason,
        "scaling_gate_waived_reason": gate_reason or None,
    }


def test_native_kernels():
    check = check_bit_identity()
    warm = measure_warm()
    scaling = measure_scaling()
    gate_applies, gate_reason = scaling_gate()
    emit("bench_native_kernels", render(check, warm, scaling, gate_reason))
    emit_json("native", to_payload(check, warm, scaling, gate_reason))

    # Correctness gates hold on every host, fallback tier included.
    assert check["run_bit_identical"] and check["batch_bit_identical"]
    assert check["ledger_identical"]
    for r in warm + scaling:
        assert r["bit_identical"], f"{r['workload']} native output diverged"

    # Performance gates only where the JIT tier actually runs.
    if numba_available():
        for r in warm:
            assert r["speedup"] >= MIN_SPEEDUP, (
                f"{r['workload']} native speedup {r['speedup']:.2f}x "
                f"< {MIN_SPEEDUP:g}x"
            )
    if gate_applies:
        for r in scaling:
            if r["n_jobs"] >= 2:
                assert r["speedup_vs_vectorized"] > 1.0, (
                    f"n_jobs={r['n_jobs']} native "
                    f"{r['speedup_vs_vectorized']:.2f}x <= 1x vs vectorized"
                )


if __name__ == "__main__":
    check = check_bit_identity()
    warm = measure_warm()
    scaling = measure_scaling()
    _, gate_reason = scaling_gate()
    print(render(check, warm, scaling, gate_reason))
    path = emit_json("native", to_payload(check, warm, scaling, gate_reason))
    print(f"wrote {path}")
