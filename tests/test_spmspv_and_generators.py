"""Tests for the SpMSpV kernel."""

import numpy as np
import pytest

from repro.core.spmspv import spmspv, spmspv_dense_reference


def sparse_vector(n: int, nnz: int, seed: int) -> tuple:
    """A sorted sparse frontier ``(indices, values)`` with ``nnz`` entries."""
    rng = np.random.default_rng(seed)
    indices = np.sort(rng.choice(n, size=nnz, replace=False).astype(np.int64))
    return indices, rng.uniform(0.1, 1.0, size=nnz)


def test_spmspv_matches_dense(small_er_graph, rng):
    idx, val = sparse_vector(small_er_graph.n_cols, 50, seed=3)
    out_idx, out_val, _ = spmspv(small_er_graph, idx, val)
    dense = np.zeros(small_er_graph.n_rows)
    dense[out_idx] = out_val
    assert np.allclose(dense, spmspv_dense_reference(small_er_graph, idx, val))


def test_spmspv_output_sorted(small_er_graph):
    idx, val = sparse_vector(small_er_graph.n_cols, 80, seed=4)
    out_idx, _, _ = spmspv(small_er_graph, idx, val)
    assert np.all(np.diff(out_idx) > 0)


def test_spmspv_record_savings(small_er_graph):
    """A tiny frontier touches far fewer records than full SpMV."""
    idx, val = sparse_vector(small_er_graph.n_cols, 5, seed=5)
    _, _, stats = spmspv(small_er_graph, idx, val)
    assert stats["touched_records"] < small_er_graph.nnz / 10
    assert stats["record_savings"] > 0.9


def test_spmspv_full_frontier_equals_spmv(small_er_graph, rng):
    x = rng.uniform(0.1, 1.0, size=small_er_graph.n_cols)
    idx = np.arange(small_er_graph.n_cols, dtype=np.int64)
    out_idx, out_val, stats = spmspv(small_er_graph, idx, x)
    dense = np.zeros(small_er_graph.n_rows)
    dense[out_idx] = out_val
    assert np.allclose(dense, small_er_graph.spmv(x))
    assert stats["touched_records"] == small_er_graph.nnz


def test_spmspv_empty_frontier(small_er_graph):
    out_idx, out_val, stats = spmspv(
        small_er_graph, np.array([], dtype=np.int64), np.array([])
    )
    assert out_idx.size == 0
    assert stats["output_nnz"] == 0


def test_spmspv_validation(small_er_graph):
    with pytest.raises(ValueError):
        spmspv(small_er_graph, np.array([5, 3]), np.ones(2))  # not increasing
    with pytest.raises(ValueError):
        spmspv(small_er_graph, np.array([10**9]), np.ones(1))  # out of range
    with pytest.raises(ValueError):
        spmspv(small_er_graph, np.array([1]), np.ones(2))  # length mismatch
