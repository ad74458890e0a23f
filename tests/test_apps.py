"""Tests for the graph-analytics applications."""

from dataclasses import replace

import numpy as np
import pytest

from repro.apps.bfs import bfs_levels
from repro.apps.components import connected_components
from repro.apps.pagerank import pagerank, pagerank_reference, stochastic_matrix
from repro.core.config import TwoStepConfig
from repro.core.twostep import TwoStepEngine
from repro.formats.coo import COOMatrix
from repro.generators.erdos_renyi import erdos_renyi_graph


def chain_graph(n):
    """0 -> 1 -> 2 -> ... -> n-1."""
    rows = np.arange(n - 1)
    cols = np.arange(1, n)
    return COOMatrix.from_triples(n, n, rows, cols, np.ones(n - 1))


def test_stochastic_matrix_columns_sum_to_one(small_er_graph):
    m = stochastic_matrix(small_er_graph)
    sums = np.zeros(m.n_cols)
    np.add.at(sums, m.cols, m.vals)
    out_deg = small_er_graph.row_degrees()
    assert np.allclose(sums[out_deg > 0], 1.0)
    assert np.allclose(sums[out_deg == 0], 0.0)


def test_stochastic_matrix_requires_square():
    rect = COOMatrix.from_triples(2, 3, [0], [1], [1.0])
    with pytest.raises(ValueError):
        stochastic_matrix(rect)


def test_pagerank_reference_converges(small_er_graph):
    result = pagerank_reference(small_er_graph, tol=1e-10, max_iterations=200)
    assert result.converged
    assert result.ranks.min() > 0
    # Residuals decrease monotonically after the first few iterations.
    assert result.residuals[-1] < result.residuals[0]


def test_pagerank_engine_matches_reference():
    graph = erdos_renyi_graph(500, 5.0, seed=21)
    cfg = TwoStepConfig(segment_width=128, q=2)
    ref = pagerank_reference(graph, tol=1e-10, max_iterations=100)
    ours = pagerank(graph, cfg, tol=1e-10, max_iterations=100)
    assert ours.converged == ref.converged
    assert np.allclose(ours.ranks, ref.ranks, atol=1e-8)
    assert ours.its_report is not None


def test_pagerank_ranks_chain_head_lowest():
    """In a chain, rank accumulates downstream."""
    graph = chain_graph(10)
    result = pagerank_reference(graph, max_iterations=100)
    assert result.ranks[0] == result.ranks.min()


def test_pagerank_its_traffic_smaller_than_sequential():
    graph = erdos_renyi_graph(400, 4.0, seed=22)
    cfg = TwoStepConfig(segment_width=100, q=2)
    result = pagerank(graph, cfg, tol=1e-12, max_iterations=20)
    report = result.its_report
    from repro.core.its import plain_iteration_traffic

    plain = plain_iteration_traffic(report.per_iteration)
    assert report.traffic.total_bytes < plain.total_bytes
    assert report.cycle_speedup > 1.0


def test_pagerank_damping_validation(small_er_graph):
    cfg = TwoStepConfig(segment_width=128)
    with pytest.raises(ValueError):
        pagerank(small_er_graph, cfg, damping=1.5)


def test_bfs_levels_chain():
    graph = chain_graph(6)
    levels = bfs_levels(graph, 0)
    assert levels.tolist() == [0, 1, 2, 3, 4, 5]


def test_bfs_levels_unreachable():
    m = COOMatrix.from_triples(4, 4, [0], [1], [1.0])
    levels = bfs_levels(m, 0)
    assert levels.tolist() == [0, 1, -1, -1]


def test_bfs_respects_direction():
    graph = chain_graph(4)
    levels = bfs_levels(graph, 3)  # nothing downstream of the tail
    assert levels.tolist() == [-1, -1, -1, 0]


def test_bfs_through_engine_matches_reference(small_er_graph):
    engine = TwoStepEngine(TwoStepConfig(segment_width=512, q=2))
    ref = bfs_levels(small_er_graph, 0)
    ours = bfs_levels(small_er_graph, 0, engine=engine)
    assert np.array_equal(ref, ours)


def test_bfs_validates_source(small_er_graph):
    with pytest.raises(ValueError):
        bfs_levels(small_er_graph, -1)
    with pytest.raises(ValueError):
        bfs_levels(small_er_graph, small_er_graph.n_rows)


def test_components_two_islands():
    # 0-1-2 connected, 3-4 connected, 5 isolated.
    m = COOMatrix.from_triples(6, 6, [0, 1, 3], [1, 2, 4], np.ones(3))
    labels = connected_components(m)
    assert labels[0] == labels[1] == labels[2] == 0
    assert labels[3] == labels[4] == 3
    assert labels[5] == 5


def test_components_treats_edges_undirected():
    m = COOMatrix.from_triples(3, 3, [2], [0], [1.0])  # 2 -> 0 only
    labels = connected_components(m)
    assert labels[0] == labels[2]


def test_components_matches_bfs_reachability(small_er_graph):
    labels = connected_components(small_er_graph)
    # Every edge endpoint pair shares a label.
    assert np.array_equal(labels[small_er_graph.rows], labels[small_er_graph.cols])


def test_components_requires_square():
    rect = COOMatrix.from_triples(2, 3, [0], [1], [1.0])
    with pytest.raises(ValueError):
        connected_components(rect)


def test_bfs_multi_matches_single_source(small_er_graph):
    from repro.apps.bfs import bfs_levels_multi

    sources = [0, 3, 7]
    engine = TwoStepEngine(TwoStepConfig(segment_width=512, q=2))
    batched = bfs_levels_multi(small_er_graph, sources, engine=engine)
    assert batched.shape == (small_er_graph.n_rows, len(sources))
    for s, src in enumerate(sources):
        assert np.array_equal(batched[:, s], bfs_levels(small_er_graph, src))
    # Reference (engine-less) batch agrees too.
    assert np.array_equal(batched, bfs_levels_multi(small_er_graph, sources))


def test_bfs_multi_validates_sources(small_er_graph):
    from repro.apps.bfs import bfs_levels_multi

    with pytest.raises(ValueError):
        bfs_levels_multi(small_er_graph, [0, small_er_graph.n_rows])


def test_kcore_through_engine_matches_edge_sweep(small_er_graph):
    from repro.apps.kcore import kcore_decomposition

    engine = TwoStepEngine(TwoStepConfig(segment_width=512, q=2))
    ref = kcore_decomposition(small_er_graph)
    ours = kcore_decomposition(small_er_graph, engine=engine)
    assert np.array_equal(ref, ours)
    # Every peeling round after the first reused the cached plan.
    stats = engine.plan_cache_stats
    assert stats["misses"] == 1 and stats["hits"] >= 1


def test_pagerank_accepts_parallel_jobs(small_er_graph):
    cfg = TwoStepConfig(segment_width=512, q=2)
    ref = pagerank(small_er_graph, cfg, max_iterations=8)
    par = pagerank(
        small_er_graph, replace(cfg, backend="native", n_jobs=2), max_iterations=8
    )
    assert np.array_equal(ref.ranks, par.ranks)
