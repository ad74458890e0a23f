"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.formats.coo import COOMatrix
from repro.generators.erdos_renyi import erdos_renyi_graph
from repro.generators.rmat import rmat_graph


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def small_er_graph():
    """2k-node Erdős–Rényi graph, avg degree 4."""
    return erdos_renyi_graph(2000, 4.0, seed=1)


@pytest.fixture
def small_rmat_graph():
    """2**11-node RMAT graph with power-law degrees."""
    return rmat_graph(11, 8.0, seed=2)


@pytest.fixture
def gate_engine():
    """``gate_engine(server) -> (started, release)``: hold a server's lane busy.

    The server's batches block in the executor (``started`` set) until
    ``release`` is set, so later requests queue behind a running batch.
    """

    def gate(server):
        engine = server.registry.engine()
        original = engine.run_many
        started, release = threading.Event(), threading.Event()

        def gated(matrix, X, **kwargs):
            started.set()
            release.wait(timeout=5)
            return original(matrix, X, **kwargs)

        engine.run_many = gated
        return started, release

    return gate


@pytest.fixture
def tiny_matrix():
    """A fixed 6x6 matrix with known dense form."""
    rows = [0, 0, 1, 2, 3, 3, 5]
    cols = [1, 4, 0, 2, 1, 5, 3]
    vals = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]
    return COOMatrix.from_triples(6, 6, rows, cols, vals)


def random_sorted_lists(rng, n_lists, key_space, max_len):
    """Random sorted (indices, values) lists for merge tests."""
    lists = []
    for _ in range(n_lists):
        size = int(rng.integers(0, max_len + 1))
        size = min(size, key_space)
        idx = np.sort(rng.choice(key_space, size=size, replace=False)).astype(np.int64)
        val = rng.uniform(-1.0, 1.0, size=size)
        lists.append((idx, val))
    return lists


def dense_from_lists(lists, n_out):
    """Accumulated dense reference for merge outputs."""
    out = np.zeros(n_out, dtype=np.float64)
    for idx, val in lists:
        np.add.at(out, np.asarray(idx, dtype=np.int64), np.asarray(val, dtype=np.float64))
    return out


def plan_free_step1(config, matrix, x):
    """Step 1 without a plan: ``(indices, values)`` per stripe of ``config``'s
    geometry, each computed by the configured backend's raw-array
    ``stripe_spmv``."""
    from repro.backends import resolve_backend
    from repro.formats.blocking import column_blocks

    backend = resolve_backend(config.backend)
    return [
        backend.stripe_spmv(
            block.matrix.rows, block.matrix.cols, block.matrix.vals,
            x[block.col_lo : block.col_hi],
        )
        for block in column_blocks(matrix, config.stripe_width(matrix.n_cols))
    ]
