"""Tests for the autotuner, the mesh generator and clocked energy."""

import numpy as np
import pytest

from repro.core.autotune import autotune
from repro.core.design_points import TS_ASIC, TS_FPGA2
from repro.core.step1 import sample_intermediate_deltas
from repro.core.twostep import TwoStepEngine
from repro.generators.erdos_renyi import erdos_renyi_graph
from repro.generators.mesh import mesh_graph
from repro.generators.rmat import rmat_graph


class TestAutotune:
    def test_powerlaw_enables_hdn(self):
        graph = rmat_graph(11, 12.0, seed=71)
        report = autotune(graph, segment_width=512)
        assert report.hdn_enabled
        assert report.config.hdn is not None
        assert report.config.hdn.degree_threshold >= 1

    def test_uniform_disables_hdn(self):
        graph = erdos_renyi_graph(2000, 6.0, seed=72)
        report = autotune(graph, segment_width=512)
        assert not report.hdn_enabled

    def test_vldi_block_matches_direct_search(self):
        graph = erdos_renyi_graph(4000, 3.0, seed=73)
        report = autotune(graph, segment_width=400)
        from repro.compression.vldi import optimal_block_width

        deltas = sample_intermediate_deltas(graph, 400)
        best, _ = optimal_block_width(deltas, candidates=range(2, 21))
        assert report.config.vldi_vector_block_bits == best

    def test_vldi_disabled_when_requested(self):
        graph = erdos_renyi_graph(1000, 3.0, seed=74)
        report = autotune(graph, segment_width=200, enable_vldi=False)
        assert report.config.vldi_vector_block_bits is None
        assert report.sampled_deltas == 0

    def test_q_matches_design_point(self):
        graph = erdos_renyi_graph(500, 3.0, seed=75)
        asic = autotune(graph, TS_ASIC, segment_width=100)
        fpga = autotune(graph, TS_FPGA2, segment_width=100)
        assert asic.config.n_cores == TS_ASIC.n_merge_cores
        assert fpga.config.n_cores == TS_FPGA2.n_merge_cores

    def test_tuned_config_runs_correctly(self, rng):
        graph = rmat_graph(10, 8.0, seed=76)
        report = autotune(graph, segment_width=300)
        engine = TwoStepEngine(report.config)
        x = rng.uniform(size=graph.n_cols)
        y, _ = engine.run(graph, x)
        assert np.allclose(y, graph.spmv(x))

    def test_delta_sampling_empty_matrix(self):
        from repro.formats.coo import COOMatrix

        empty = COOMatrix(
            10, 10, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), np.empty(0)
        )
        assert sample_intermediate_deltas(empty, 5).size == 0


class TestMeshGenerator:
    def test_dimensions_and_degree(self):
        g = mesh_graph(3000, 4.0, seed=1)
        assert g.shape == (3000, 3000)
        assert g.nnz / g.n_rows > 3.0

    def test_band_respected(self):
        g = mesh_graph(5000, 3.0, seed=2, band=10)
        assert np.abs(g.cols - g.rows).max() <= 10

    def test_unweighted(self):
        g = mesh_graph(500, 2.0, seed=3, weighted=False)
        # Duplicates accumulate, so values are positive integers.
        assert np.all(g.vals >= 1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            mesh_graph(0, 2.0)
        with pytest.raises(ValueError):
            mesh_graph(10, -1.0)
        with pytest.raises(ValueError):
            mesh_graph(10, 2.0, band=0)

    def test_dataset_alias_consistent(self):
        from repro.generators.datasets import _mesh_graph

        a = _mesh_graph(400, 3.0, 9)
        b = mesh_graph(400, 3.0, seed=9)
        assert np.array_equal(a.rows, b.rows)
