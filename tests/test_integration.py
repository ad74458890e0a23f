"""Cross-module integration tests: full accelerator scenarios."""

import numpy as np
import pytest

from repro.core.accelerator import Accelerator
from repro.core.config import TwoStepConfig
from repro.core.design_points import ITS_VC_ASIC, TS_ASIC
from repro.core.twostep import TwoStepEngine
from repro.filters.hdn import HDNConfig
from repro.generators.datasets import CUSTOM_HW_GRAPHS, get_dataset, instantiate
from repro.generators.erdos_renyi import erdos_renyi_graph
from repro.generators.rmat import rmat_graph
from repro.merge.merge_core import MergeCore, MergeCoreConfig
from repro.merge.prap import PRaPMergeNetwork, PRaPConfig


def test_full_pipeline_on_dataset_standin():
    """Instantiate a Table 4 graph at simulation scale, run the complete
    accelerator path (blocking, step 1, PRaP merge), verify vs dense."""
    spec = get_dataset("web-Go")
    graph = instantiate(spec, max_nodes=1 << 12, seed=3)
    acc = Accelerator(TS_ASIC, simulation_segment_width=512)
    rng = np.random.default_rng(5)
    x = rng.uniform(size=graph.n_cols)
    y, report = acc.run(graph, x)
    assert np.allclose(y, graph.spmv(x))
    assert report.n_stripes == -(-graph.n_cols // 512)
    assert report.traffic.cache_line_wastage_bytes == 0


def test_vldi_accelerator_end_to_end():
    graph = erdos_renyi_graph(4096, 3.0, seed=9)
    acc = Accelerator(ITS_VC_ASIC, simulation_segment_width=1024)
    x = np.random.default_rng(1).uniform(size=graph.n_cols)
    y, report = acc.run(graph, x)
    assert np.allclose(y, graph.spmv(x))
    assert report.traffic.notes["vldi_vector"] is not None


def test_powerlaw_with_hdn_full_path():
    """RMAT graph + Bloom HDN dispatch + VLDI + multi-stripe + PRaP."""
    graph = rmat_graph(12, 8.0, seed=13)
    cfg = TwoStepConfig(
        segment_width=700,
        q=3,
        vldi_vector_block_bits=8,
        vldi_matrix_block_bits=10,
        hdn=HDNConfig(degree_threshold=64),
    )
    engine = TwoStepEngine(cfg)
    x = np.random.default_rng(2).uniform(size=graph.n_cols)
    y, report = engine.run(graph, x)
    assert np.allclose(y, graph.spmv(x))
    assert report.hdn_filter_bytes > 0
    assert report.step1.hdn_records > 0


def test_cycle_model_merge_core_agrees_with_prap_network(rng):
    """The record-level MC simulator and the PRaP network must agree."""
    from tests.conftest import dense_from_lists, random_sorted_lists

    lists = random_sorted_lists(rng, 4, 64, 30)
    core = MergeCore(MergeCoreConfig(ways=4, fifo_depth=2))
    keys, vals = core.merge(lists, dense_range=(0, 64))
    dense_mc = np.zeros(64)
    dense_mc[keys] = vals

    network = PRaPMergeNetwork(PRaPConfig(q=2, core=MergeCoreConfig(ways=4)))
    dense_prap = network.merge(lists, 64)
    assert np.allclose(dense_mc, dense_prap)
    assert np.allclose(dense_mc, dense_from_lists(lists, 64))


def test_iterative_pipeline_pagerank_on_standin():
    from repro.apps.pagerank import pagerank, pagerank_reference

    spec = get_dataset("web-Ta")
    graph = instantiate(spec, max_nodes=1 << 10, seed=4)
    cfg = TwoStepConfig(segment_width=256, q=2)
    ref = pagerank_reference(graph, tol=1e-9, max_iterations=60)
    ours = pagerank(graph, cfg, tol=1e-9, max_iterations=60)
    assert np.allclose(ours.ranks, ref.ranks, atol=1e-7)
    # ITS accounting present and consistent.
    assert ours.its_report.iterations == ours.iterations


def test_paper_scale_estimates_for_all_table4_graphs():
    acc = Accelerator(TS_ASIC)
    for spec in CUSTOM_HW_GRAPHS:
        est = acc.estimate_dataset(spec)
        assert est.gteps > 1.0, spec.name
        assert est.traffic.total_bytes > spec.n_edges  # at least a byte/edge


def test_spmv_chain_y_accumulation():
    """y = A x + y chained twice equals A(Ax + y0) + (Ax + y0)... sanity of
    the accumulate path through the full engine."""
    graph = erdos_renyi_graph(1000, 4.0, seed=30)
    engine = TwoStepEngine(TwoStepConfig(segment_width=300, q=2))
    rng = np.random.default_rng(3)
    x = rng.uniform(size=1000)
    y0 = rng.uniform(size=1000)
    y1, _ = engine.run(graph, x, y=y0)
    y2, _ = engine.run(graph, y1, y=y1)
    ref1 = graph.spmv(x, y0)
    ref2 = graph.spmv(ref1, ref1)
    assert np.allclose(y2, ref2)
