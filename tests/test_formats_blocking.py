"""Tests for 1-D column blocking and 2-D grid blocking."""

import numpy as np
import pytest

from repro.formats.blocking import column_blocks, grid_blocks
from repro.formats.coo import COOMatrix


def test_column_blocks_cover_all_nonzeros(small_er_graph):
    blocks = column_blocks(small_er_graph, 300)
    assert sum(b.nnz for b in blocks) == small_er_graph.nnz
    assert blocks[0].col_lo == 0
    assert blocks[-1].col_hi == small_er_graph.n_cols
    for prev, nxt in zip(blocks, blocks[1:]):
        assert prev.col_hi == nxt.col_lo


def test_column_blocks_widths(small_er_graph):
    blocks = column_blocks(small_er_graph, 300)
    assert all(b.width == 300 for b in blocks[:-1])
    assert blocks[-1].width == small_er_graph.n_cols - 300 * (len(blocks) - 1)


def test_column_block_local_indices(tiny_matrix):
    blocks = column_blocks(tiny_matrix, 4)
    assert len(blocks) == 2
    for block in blocks:
        if block.nnz:
            assert block.matrix.cols.max() < block.width
            assert block.matrix.cols.min() >= 0


def test_column_blocks_partial_spmv_sums_to_reference(small_er_graph, rng):
    x = rng.uniform(size=small_er_graph.n_cols)
    total = np.zeros(small_er_graph.n_rows)
    for block in column_blocks(small_er_graph, 257):
        total += block.matrix.spmv(x[block.col_lo : block.col_hi])
    assert np.allclose(total, small_er_graph.spmv(x))


def test_column_blocks_single_stripe(tiny_matrix):
    blocks = column_blocks(tiny_matrix, 100)
    assert len(blocks) == 1
    assert blocks[0].nnz == tiny_matrix.nnz
    # One stripe spanning every column is the matrix itself, not a copy.
    assert blocks[0].matrix is tiny_matrix
    assert (blocks[0].col_lo, blocks[0].col_hi) == (0, tiny_matrix.n_cols)


def test_column_blocks_validates_width(tiny_matrix):
    with pytest.raises(ValueError):
        column_blocks(tiny_matrix, 0)


def test_grid_blocks_cover_all_nonzeros(small_er_graph):
    tiles = grid_blocks(small_er_graph, 4, 500)
    assert sum(t.nnz for t in tiles) == small_er_graph.nnz


def test_grid_blocks_local_indices(small_er_graph):
    for tile in grid_blocks(small_er_graph, 3, 700):
        if tile.nnz:
            assert tile.matrix.rows.max() < tile.row_hi - tile.row_lo
            assert tile.matrix.cols.max() < tile.col_hi - tile.col_lo


def test_grid_blocks_reassemble_spmv(small_er_graph, rng):
    x = rng.uniform(size=small_er_graph.n_cols)
    total = np.zeros(small_er_graph.n_rows)
    for tile in grid_blocks(small_er_graph, 4, 600):
        partial = tile.matrix.spmv(x[tile.col_lo : tile.col_hi])
        total[tile.row_lo : tile.row_hi] += partial
    assert np.allclose(total, small_er_graph.spmv(x))


def test_grid_blocks_validation(tiny_matrix):
    with pytest.raises(ValueError):
        grid_blocks(tiny_matrix, 0, 2)
    with pytest.raises(ValueError):
        grid_blocks(tiny_matrix, 2, 0)


def test_grid_blocks_more_parts_than_rows():
    m = COOMatrix.from_triples(2, 2, [0, 1], [0, 1], [1.0, 2.0])
    tiles = grid_blocks(m, 5, 1)
    assert sum(t.nnz for t in tiles) == 2


def _select_columns_oracle(matrix, width):
    """The stripes cut one at a time, each by masking every nonzero."""
    stripes = []
    for lo in range(0, matrix.n_cols, width):
        hi = min(lo + width, matrix.n_cols)
        stripes.append((lo, hi, matrix.select_columns(lo, hi)))
    return stripes


def _assert_matches_oracle(matrix, width):
    blocks = column_blocks(matrix, width)
    oracle = _select_columns_oracle(matrix, width)
    assert len(blocks) == len(oracle)
    for k, (block, (lo, hi, stripe)) in enumerate(zip(blocks, oracle)):
        assert (block.index, block.col_lo, block.col_hi) == (k, lo, hi)
        assert block.matrix.shape == stripe.shape
        assert np.array_equal(block.matrix.rows, stripe.rows)
        assert np.array_equal(block.matrix.cols, stripe.cols)
        assert block.matrix.rows.dtype == block.matrix.cols.dtype == np.int64
        assert block.matrix.vals.tobytes() == stripe.vals.tobytes()


@pytest.mark.parametrize("family", ["er", "rmat"])
@pytest.mark.parametrize("width", [1, 7, 300, 1024, "n-1", "n", "n+9"])
def test_column_blocks_match_per_stripe_select_columns(
    family, width, small_er_graph, small_rmat_graph
):
    matrix = small_er_graph if family == "er" else small_rmat_graph
    if isinstance(width, str):
        width = matrix.n_cols + {"n-1": -1, "n": 0, "n+9": 9}[width]
    # Signed zeros and negatives must travel with their records.
    vals = matrix.vals.copy()
    vals[::5] = -0.0
    vals[1::5] *= -1.0
    matrix = COOMatrix(matrix.n_rows, matrix.n_cols, matrix.rows, matrix.cols, vals)
    _assert_matches_oracle(matrix, width)


def _coo(n_rows, n_cols, rows, cols, vals):
    return COOMatrix(n_rows, n_cols, np.array(rows, np.int64), np.array(cols, np.int64), np.array(vals))


EDGE_MATRICES = {
    # Columns 1, 2 and 4 hold nothing, so some stripes are empty.
    "empty_stripes": _coo(4, 6, [0, 1, 1, 3, 3], [5, 0, 3, 3, 5], [1.0, -0.0, 3.0, 4.0, 5.0]),
    "nnz0": _coo(5, 7, [], [], []),
    "n1": _coo(1, 1, [0], [0], [-2.5]),
}


@pytest.mark.parametrize("name", sorted(EDGE_MATRICES))
@pytest.mark.parametrize("width", [1, 2, 3, 5, 6, 7, 10])
def test_column_blocks_match_oracle_on_edge_cases(name, width):
    matrix = EDGE_MATRICES[name]
    _assert_matches_oracle(matrix, width)
    assert sum(b.nnz for b in column_blocks(matrix, width)) == matrix.nnz


@pytest.mark.parametrize("width", [1, 4])
def test_column_blocks_zero_columns_give_no_stripes(width):
    assert column_blocks(_coo(3, 0, [], [], []), width) == []
