"""Tests for graph and vector generators."""

import numpy as np
import pytest

from repro.generators.datasets import (
    CPU_GRAPHS,
    CUSTOM_HW_GRAPHS,
    GPU_GRAPHS,
    get_dataset,
    instantiate,
)
from repro.generators.erdos_renyi import erdos_renyi_graph
from repro.generators.rmat import rmat_graph


def test_er_graph_dimensions_and_degree():
    g = erdos_renyi_graph(5000, 4.0, seed=3)
    assert g.shape == (5000, 5000)
    realized = g.nnz / g.n_rows
    assert 3.5 <= realized <= 4.0  # dedup loses a little


def test_er_graph_is_canonical():
    g = erdos_renyi_graph(1000, 3.0, seed=4)
    assert g.is_row_sorted()
    keys = g.rows * g.n_cols + g.cols
    assert np.unique(keys).size == g.nnz  # no duplicate coordinates


def test_er_graph_reproducible():
    a = erdos_renyi_graph(500, 2.0, seed=9)
    b = erdos_renyi_graph(500, 2.0, seed=9)
    assert np.array_equal(a.rows, b.rows)
    assert np.array_equal(a.cols, b.cols)
    assert np.array_equal(a.vals, b.vals)


def test_er_graph_seed_changes_output():
    a = erdos_renyi_graph(500, 2.0, seed=1)
    b = erdos_renyi_graph(500, 2.0, seed=2)
    assert not (a.nnz == b.nnz and np.array_equal(a.rows, b.rows) and np.array_equal(a.cols, b.cols))


def test_er_graph_unweighted():
    g = erdos_renyi_graph(300, 2.0, seed=5, weighted=False)
    assert np.all(g.vals == 1.0)


def test_er_graph_rectangular():
    g = erdos_renyi_graph(100, 3.0, seed=6, square=False, n_cols=50)
    assert g.shape == (100, 50)
    assert g.cols.max() < 50


def test_er_graph_validation():
    with pytest.raises(ValueError):
        erdos_renyi_graph(0, 1.0)
    with pytest.raises(ValueError):
        erdos_renyi_graph(10, -1.0)


def test_rmat_graph_dimensions():
    g = rmat_graph(10, 8.0, seed=7)
    assert g.shape == (1024, 1024)
    assert g.nnz > 0


def test_rmat_graph_power_law_skew():
    g = rmat_graph(12, 16.0, seed=8)
    degrees = g.row_degrees()
    # Power-law: the max degree dwarfs the mean, unlike ER.
    assert degrees.max() > 8 * degrees.mean()


def test_rmat_reproducible():
    a = rmat_graph(9, 4.0, seed=11)
    b = rmat_graph(9, 4.0, seed=11)
    assert np.array_equal(a.rows, b.rows) and np.array_equal(a.cols, b.cols)


def test_rmat_validation():
    with pytest.raises(ValueError):
        rmat_graph(0, 4.0)
    with pytest.raises(ValueError):
        rmat_graph(5, 4.0, a=0.9, b=0.2, c=0.2)


def test_dataset_tables_complete():
    assert len(CUSTOM_HW_GRAPHS) == 11  # Table 4
    assert len(GPU_GRAPHS) == 3  # Table 5
    assert len(CPU_GRAPHS) == 17  # Table 6


def test_dataset_lookup():
    tw = get_dataset("TW")
    assert tw.n_nodes == 41_600_000
    assert tw.avg_degree == pytest.approx(35.30)
    with pytest.raises(KeyError):
        get_dataset("nope")


def test_dataset_edges_consistent_with_degree():
    # Table 4's LiveJournal row is internally inconsistent in the paper
    # itself (7.8M x 14.38 != 69M); tolerate it but keep the rest tight.
    for spec in CUSTOM_HW_GRAPHS + GPU_GRAPHS + CPU_GRAPHS:
        implied = spec.n_nodes * spec.avg_degree
        rel = 0.65 if spec.name == "LJ" else 0.35
        assert implied == pytest.approx(spec.n_edges, rel=rel), spec.name


def test_instantiate_scales_down():
    spec = get_dataset("TW")
    g = instantiate(spec, max_nodes=1 << 12)
    assert g.n_rows <= 1 << 12
    realized = g.nnz / g.n_rows
    assert realized > spec.avg_degree * 0.3  # heavy dedup tolerated for RMAT


def test_instantiate_mesh_locality():
    spec = get_dataset("road_central")
    g = instantiate(spec, max_nodes=4096)
    gaps = np.abs(g.cols - g.rows)
    assert np.median(gaps) < 200  # banded structure


def test_instantiate_uniform_family():
    spec = get_dataset("Sy-60M")
    g = instantiate(spec, max_nodes=2048)
    assert g.n_rows == 2048
    assert g.nnz == pytest.approx(2048 * 3, rel=0.05)
