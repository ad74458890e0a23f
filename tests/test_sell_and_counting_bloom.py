"""Tests for the SELL-C-sigma format."""

import numpy as np
import pytest

from repro.formats.sell import coo_to_sell
from repro.generators.erdos_renyi import erdos_renyi_graph
from repro.generators.rmat import rmat_graph


class TestSell:
    def test_spmv_matches_reference(self, small_er_graph, rng):
        sell = coo_to_sell(small_er_graph, chunk=8, sigma=64)
        x = rng.uniform(size=small_er_graph.n_cols)
        assert np.allclose(sell.spmv(x), small_er_graph.spmv(x))

    def test_spmv_with_accumulator(self, tiny_matrix, rng):
        sell = coo_to_sell(tiny_matrix, chunk=2, sigma=4)
        x = rng.uniform(size=6)
        y = rng.uniform(size=6)
        assert np.allclose(sell.spmv(x, y), tiny_matrix.to_dense() @ x + y)

    def test_spmv_powerlaw_matches(self, small_rmat_graph, rng):
        sell = coo_to_sell(small_rmat_graph, chunk=16, sigma=256)
        x = rng.uniform(size=small_rmat_graph.n_cols)
        assert np.allclose(sell.spmv(x), small_rmat_graph.spmv(x))

    def test_row_order_is_permutation(self, small_er_graph):
        sell = coo_to_sell(small_er_graph)
        assert sorted(sell.row_order.tolist()) == list(range(small_er_graph.n_rows))

    def test_sigma_sorting_reduces_padding(self):
        graph = rmat_graph(11, 8.0, seed=41)
        unsorted = coo_to_sell(graph, chunk=16, sigma=16)  # sigma == chunk: no sort effect
        sorted_ = coo_to_sell(graph, chunk=16, sigma=2048)
        assert sorted_.padding_overhead <= unsorted.padding_overhead

    def test_padding_explodes_on_powerlaw(self):
        """The paper's intro claim, measured: locality/regularity-dependent
        formats degrade on unstructured power-law inputs."""
        n = 1 << 11
        uniform = erdos_renyi_graph(n, 8.0, seed=42)
        powerlaw = rmat_graph(11, 8.0, seed=42)
        sell_uniform = coo_to_sell(uniform, chunk=16, sigma=128)
        sell_powerlaw = coo_to_sell(powerlaw, chunk=16, sigma=128)
        assert sell_powerlaw.padding_overhead > 2 * sell_uniform.padding_overhead

    def test_chunk_geometry(self, small_er_graph):
        sell = coo_to_sell(small_er_graph, chunk=8)
        assert sell.n_chunks == -(-small_er_graph.n_rows // 8)
        assert sell.stored_slots == int((sell.chunk_len * 8).sum())

    def test_validation(self, tiny_matrix):
        with pytest.raises(ValueError):
            coo_to_sell(tiny_matrix, chunk=0)
        sell = coo_to_sell(tiny_matrix)
        with pytest.raises(ValueError):
            sell.spmv(np.zeros(3))
