"""The matrix zoo: the full engine over every structural corner case.

Each zoo member stresses a different path: empty stripes, dense rows,
dense columns, diagonals, bipartite block structure, rectangular shapes,
single-row/column extremes, and values that cancel.  The engine must be
bit-faithful (up to float associativity) on all of them, across stripe
widths and core counts.
"""

import numpy as np
import pytest

from repro.core.config import TwoStepConfig
from repro.core.twostep import TwoStepEngine
from repro.formats.coo import COOMatrix


def diagonal(n):
    return COOMatrix.from_triples(n, n, np.arange(n), np.arange(n), np.arange(1.0, n + 1))


def anti_diagonal(n):
    return COOMatrix.from_triples(n, n, np.arange(n), np.arange(n)[::-1], np.ones(n))


def dense_row(n):
    return COOMatrix.from_triples(n, n, np.zeros(n, dtype=np.int64), np.arange(n), np.ones(n))


def dense_column(n):
    return COOMatrix.from_triples(n, n, np.arange(n), np.zeros(n, dtype=np.int64), np.ones(n))


def block_diagonal(n, block=8):
    rows, cols = [], []
    for base in range(0, n - block + 1, block):
        for i in range(block):
            for j in range(block):
                rows.append(base + i)
                cols.append(base + j)
    return COOMatrix.from_triples(n, n, rows, cols, np.ones(len(rows)))


def bipartite(n):
    half = n // 2
    rows = np.arange(half)
    cols = np.arange(half) + half
    return COOMatrix.from_triples(
        n, n, np.concatenate([rows, cols]), np.concatenate([cols, rows]), np.ones(2 * half)
    )


def checkerboard(n):
    rows, cols = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    mask = (rows + cols) % 2 == 0
    return COOMatrix.from_triples(n, n, rows[mask], cols[mask], np.ones(int(mask.sum())))


def cancelling(n):
    """Pairs of entries that sum to zero in every output element."""
    rows = np.repeat(np.arange(n), 2)
    cols = np.tile(np.array([0, 1]), n)
    vals = np.tile(np.array([1.0, -1.0]), n)
    return COOMatrix.from_triples(n, n, rows, cols, vals)


ZOO = {
    "diagonal": diagonal(64),
    "anti_diagonal": anti_diagonal(64),
    "dense_row": dense_row(64),
    "dense_column": dense_column(64),
    "block_diagonal": block_diagonal(64),
    "bipartite": bipartite(64),
    "checkerboard": checkerboard(48),
    "cancelling": cancelling(64),
}


@pytest.mark.parametrize("name", sorted(ZOO))
@pytest.mark.parametrize("segment_width", [7, 32, 100])
@pytest.mark.parametrize("q", [0, 2])
def test_zoo_member_matches_reference(name, segment_width, q, rng):
    matrix = ZOO[name]
    engine = TwoStepEngine(TwoStepConfig(segment_width=segment_width, q=q))
    x = rng.uniform(-1.0, 1.0, size=matrix.n_cols)
    y, report = engine.run(matrix, x)
    assert np.allclose(y, matrix.spmv(x), atol=1e-12), name
    assert report.traffic.cache_line_wastage_bytes == 0.0


def test_cancelling_matrix_emits_zero_valued_records(rng):
    """Cancellation happens in the accumulators: records exist, values are
    zero -- the engine must not confuse 'zero value' with 'missing key'."""
    matrix = cancelling(32)
    engine = TwoStepEngine(TwoStepConfig(segment_width=64, q=1))
    y, report = engine.run(matrix, np.ones(32))
    assert np.allclose(y, 0.0)
    assert report.intermediate_records == 32  # one accumulated record per row


@pytest.mark.parametrize(
    "n_rows,n_cols", [(1, 100), (100, 1), (3, 200), (200, 3)]
)
def test_rectangular_shapes(n_rows, n_cols, rng):
    nnz = min(n_rows * n_cols, 150)
    rows = rng.integers(0, n_rows, size=nnz)
    cols = rng.integers(0, n_cols, size=nnz)
    matrix = COOMatrix.from_triples(n_rows, n_cols, rows, cols, rng.uniform(size=nnz))
    engine = TwoStepEngine(TwoStepConfig(segment_width=17, q=2))
    x = rng.uniform(size=n_cols)
    y, _ = engine.run(matrix, x)
    assert np.allclose(y, matrix.spmv(x))


def test_zoo_through_clocked_simulator(rng):
    """The clocked system simulator handles the structural extremes too."""
    from repro.simulator.system import SystemSim

    for name in ("dense_row", "dense_column", "bipartite"):
        matrix = ZOO[name]
        x = rng.uniform(size=matrix.n_cols)
        y, _ = SystemSim(segment_width=16).run(matrix, x)
        assert np.allclose(y, matrix.spmv(x)), name


def test_zoo_through_sell_format(rng):
    from repro.formats.sell import coo_to_sell

    for name, matrix in ZOO.items():
        sell = coo_to_sell(matrix, chunk=4, sigma=16)
        x = rng.uniform(size=matrix.n_cols)
        assert np.allclose(sell.spmv(x), matrix.spmv(x)), name
