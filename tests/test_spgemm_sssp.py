"""Tests for SpGEMM on the merge substrate and the SSSP app."""

import numpy as np
import pytest

from repro.api import create_engine
from repro.apps.sssp import sssp_bellman_ford
from repro.core.spgemm import spgemm
from repro.formats.coo import COOMatrix
from repro.generators.erdos_renyi import erdos_renyi_graph


def random_pair(rng, m=60, k=50, n=40, density=0.1):
    def sample(rows, cols):
        nnz = int(rows * cols * density)
        r = rng.integers(0, rows, size=nnz)
        c = rng.integers(0, cols, size=nnz)
        v = rng.uniform(0.5, 1.5, size=nnz)
        return COOMatrix.from_triples(rows, cols, r, c, v)

    return sample(m, k), sample(k, n)


def test_spgemm_matches_dense(rng):
    a, b = random_pair(rng)
    c = spgemm(a, b)
    assert np.allclose(c.to_dense(), a.to_dense() @ b.to_dense())


def test_spgemm_identity(rng):
    a, _ = random_pair(rng)
    eye = COOMatrix.from_triples(
        a.n_cols, a.n_cols, np.arange(a.n_cols), np.arange(a.n_cols), np.ones(a.n_cols)
    )
    c = spgemm(a, eye)
    assert np.allclose(c.to_dense(), a.to_dense())


def test_spgemm_dimension_check(rng):
    a, b = random_pair(rng, m=5, k=6, n=7)
    with pytest.raises(ValueError):
        spgemm(b, b)


def test_spgemm_empty_operand():
    a = COOMatrix(3, 4, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), np.empty(0))
    b = COOMatrix.from_triples(4, 2, [0], [1], [2.0])
    c = spgemm(a, b)
    assert c.nnz == 0
    assert c.shape == (3, 2)


def test_spgemm_output_canonical(rng):
    a, b = random_pair(rng)
    c = spgemm(a, b)
    assert c.is_row_sorted()
    keys = c.rows * c.n_cols + c.cols
    assert np.unique(keys).size == c.nnz


def test_engine_spgemm_matches_rowwise(rng):
    a, b = random_pair(rng, m=40, k=64, n=30)
    ref = spgemm(a, b)
    for width in (8, 17, 64):
        result = create_engine(segment_width=width).spgemm(a, b)
        assert np.allclose(result.c.to_dense(), ref.to_dense())
        assert result.report.partial_records >= result.report.output_records
        assert result.report.compression >= 1.0


def test_engine_spgemm_block_count(rng):
    a, b = random_pair(rng, m=20, k=40, n=20, density=0.3)
    report = create_engine(segment_width=10).spgemm(a, b).report
    assert report.n_blocks == 4


def test_spgemm_squaring_graph(rng):
    g = erdos_renyi_graph(200, 4.0, seed=33)
    c = spgemm(g, g)
    assert np.allclose(c.to_dense(), g.to_dense() @ g.to_dense())


def chain_weighted(n, w=1.0):
    rows = np.arange(n - 1)
    cols = np.arange(1, n)
    return COOMatrix.from_triples(n, n, rows, cols, np.full(n - 1, w))


def test_sssp_chain():
    g = chain_weighted(5, w=2.0)
    dist = sssp_bellman_ford(g, 0)
    assert dist.tolist() == [0.0, 2.0, 4.0, 6.0, 8.0]


def test_sssp_unreachable():
    g = COOMatrix.from_triples(4, 4, [0], [1], [1.0])
    dist = sssp_bellman_ford(g, 0)
    assert dist[1] == 1.0
    assert np.isinf(dist[2]) and np.isinf(dist[3])


def test_sssp_picks_shorter_path():
    # 0 -> 1 -> 2 costs 2; direct 0 -> 2 costs 5.
    g = COOMatrix.from_triples(3, 3, [0, 1, 0], [1, 2, 2], [1.0, 1.0, 5.0])
    dist = sssp_bellman_ford(g, 0)
    assert dist[2] == 2.0


def test_sssp_matches_dijkstra_like_reference(rng):
    g = erdos_renyi_graph(300, 5.0, seed=34)
    dist = sssp_bellman_ford(g, 0)
    # Reference: repeated relaxation until fixpoint via dense operations.
    ref = np.full(g.n_rows, np.inf)
    ref[0] = 0.0
    for _ in range(g.n_rows):
        nxt = ref.copy()
        np.minimum.at(nxt, g.cols, ref[g.rows] + g.vals)
        if np.array_equal(nxt, ref):
            break
        ref = nxt
    assert np.array_equal(dist, ref)


def test_sssp_validation():
    g = chain_weighted(4)
    with pytest.raises(ValueError):
        sssp_bellman_ford(g, -1)
    neg = COOMatrix.from_triples(2, 2, [0], [1], [-1.0])
    with pytest.raises(ValueError):
        sssp_bellman_ford(neg, 0)
    rect = COOMatrix.from_triples(2, 3, [0], [1], [1.0])
    with pytest.raises(ValueError):
        sssp_bellman_ford(rect, 0)
