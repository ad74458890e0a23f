"""Tests for power iteration."""

import numpy as np
import pytest

from repro.apps.spectral import power_iteration
from repro.core.config import TwoStepConfig
from repro.formats.coo import COOMatrix


def test_power_iteration_known_matrix():
    # Diagonal matrix: dominant eigenvalue is the largest diagonal entry.
    m = COOMatrix.from_triples(3, 3, [0, 1, 2], [0, 1, 2], [1.0, 5.0, 2.0])
    result = power_iteration(m, tol=1e-12, max_iterations=500)
    assert result.converged
    assert result.eigenvalue == pytest.approx(5.0, rel=1e-6)
    # Eigenvector concentrates on index 1.
    assert abs(result.eigenvector[1]) > 0.999


def test_power_iteration_engine_matches_reference(small_er_graph):
    # Symmetrize so the dominant eigenvalue is real and well-conditioned.
    sym = COOMatrix.from_triples(
        small_er_graph.n_rows,
        small_er_graph.n_cols,
        np.concatenate([small_er_graph.rows, small_er_graph.cols]),
        np.concatenate([small_er_graph.cols, small_er_graph.rows]),
        np.concatenate([small_er_graph.vals, small_er_graph.vals]),
    )
    ref = power_iteration(sym, tol=1e-10, max_iterations=400)
    cfg = TwoStepConfig(segment_width=512, q=2)
    ours = power_iteration(sym, config=cfg, tol=1e-10, max_iterations=400)
    assert ref.converged and ours.converged
    assert ours.eigenvalue == pytest.approx(ref.eigenvalue, rel=1e-6)


def test_power_iteration_requires_square():
    rect = COOMatrix.from_triples(2, 3, [0], [1], [1.0])
    with pytest.raises(ValueError):
        power_iteration(rect)
