"""SpGEMM engine bench: warm merge-substrate path vs per-row Gustavson.

``create_engine().spgemm`` rides the cached :class:`SpGEMMPlan` -- the
column-block partial-product geometry, merge permutation and run offsets
are built once, so warm replays are pure gather/multiply/segment-sum
with no argsort and no per-row Python dispatch.  This bench:

* always checks the engine product is **bit-identical** to the row-wise
  Gustavson reference on every zoo matrix (the differential contract
  ``tests/test_spgemm_engine.py`` enforces exhaustively);
* times warm engine replays against the per-row reference across
  structurally distinct zoo members (ER, RMAT, block-diagonal,
  bipartite-banded), gating a >= 2x speedup;
* archives ``BENCH_spgemm.json`` (with provenance) for CI trend gates.

It also archives ``spgemm_extension.txt``, the partial-product
accounting table of :func:`repro.experiments.ablations.render_spgemm`
(the ``repro figure spgemm`` table).
"""

import time

import numpy as np

from repro.analysis.reporting import format_table
from repro.api import create_engine
from repro.core.spgemm import spgemm
from repro.experiments.ablations import render_spgemm
from repro.formats.coo import COOMatrix
from repro.generators.erdos_renyi import erdos_renyi_graph
from repro.generators.rmat import rmat_graph

from benchmarks._util import emit, emit_json

SEGMENT_WIDTH = 256
WARM_REPEATS = 5
MIN_SPEEDUP = 2.0


def _block_diagonal(n: int, block: int, seed: int) -> COOMatrix:
    rng = np.random.default_rng(seed)
    rows, cols = [], []
    for lo in range(0, n, block):
        size = min(block, n - lo)
        dense = rng.random((size, size)) < 0.6
        r, c = np.nonzero(dense)
        rows.append(r + lo)
        cols.append(c + lo)
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    return COOMatrix.from_triples(n, n, rows, cols, rng.uniform(0.5, 1.5, rows.size))


def _bipartite_banded(n: int, band: int, seed: int) -> COOMatrix:
    rng = np.random.default_rng(seed)
    half = n // 2
    nnz = 4 * n
    rows = rng.integers(0, half, nnz)
    cols = half + (rows + rng.integers(0, band, nnz)) % half
    # Symmetrize so A @ A closes two-hop paths across the bipartition.
    all_rows = np.concatenate([rows, cols])
    all_cols = np.concatenate([cols, rows])
    return COOMatrix.from_triples(
        n, n, all_rows, all_cols, rng.uniform(0.5, 1.5, all_rows.size)
    )


def _zoo():
    return [
        ("er", erdos_renyi_graph(1500, 4.0, seed=71)),
        ("rmat", rmat_graph(10, 4.0, seed=72)),
        ("block_diagonal", _block_diagonal(1024, 8, seed=73)),
        ("bipartite_banded", _bipartite_banded(1024, 16, seed=74)),
    ]


def _time(fn, repeats=1):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def run_bench() -> dict:
    rows = []
    results = []
    for name, a in _zoo():
        start = time.perf_counter()
        reference = spgemm(a, a)
        gustavson_s = time.perf_counter() - start

        engine = create_engine(backend="vectorized", segment_width=SEGMENT_WIDTH)
        start = time.perf_counter()
        cold = engine.spgemm(a, a)
        cold_s = time.perf_counter() - start
        # Same B object: the symbolic SpGEMM plan is cached, warm replays
        # are argsort-free gather/multiply/segment-sum.
        warm_s = _time(lambda: engine.spgemm(a, a), repeats=WARM_REPEATS)

        c = cold.c
        assert np.array_equal(c.rows, reference.rows)
        assert np.array_equal(c.cols, reference.cols)
        assert np.array_equal(c.vals, reference.vals)  # bitwise

        report = cold.report
        speedup = gustavson_s / warm_s if warm_s else float("inf")
        rows.append(
            [
                name,
                f"{a.nnz:,}",
                f"{c.nnz:,}",
                f"{report.compression:.2f}x",
                f"{gustavson_s * 1e3:.1f}",
                f"{cold_s * 1e3:.1f}",
                f"{warm_s * 1e3:.1f}",
                f"{speedup:.1f}x",
            ]
        )
        results.append(
            {
                "matrix": name,
                "n": a.n_rows,
                "nnz": a.nnz,
                "output_nnz": c.nnz,
                "n_blocks": report.n_blocks,
                "partial_records": report.partial_records,
                "output_records": report.output_records,
                "compression": report.compression,
                "gustavson_s": gustavson_s,
                "engine_cold_s": cold_s,
                "engine_warm_s": warm_s,
                "speedup_warm": speedup,
                "bit_identical": True,
            }
        )
    return {
        "results": results,
        "min_speedup": min(r["speedup_warm"] for r in results),
        "gate_min_speedup": MIN_SPEEDUP,
        "segment_width": SEGMENT_WIDTH,
        "table": format_table(
            [
                "matrix", "nnz(A)", "nnz(C)", "compress",
                "gustavson ms", "cold ms", "warm ms", "speedup",
            ],
            rows,
        ),
    }


def test_spgemm_engine_speedup(benchmark):
    payload = benchmark(run_bench)
    table = payload.pop("table")
    emit("spgemm_engine", table)
    emit_json("spgemm", payload)
    emit("spgemm_extension", render_spgemm())
    assert payload["min_speedup"] >= MIN_SPEEDUP


if __name__ == "__main__":
    payload = run_bench()
    table = payload.pop("table")
    emit("spgemm_engine", table)
    path = emit_json("spgemm", payload)
    emit("spgemm_extension", render_spgemm())
    print(f"wrote {path}")
    assert payload["min_speedup"] >= MIN_SPEEDUP, (
        f"warm engine speedup {payload['min_speedup']:.2f}x "
        f"below the {MIN_SPEEDUP}x gate"
    )
