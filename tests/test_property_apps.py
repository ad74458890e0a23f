"""Property-based tests for the application and compression layers."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.components import connected_components
from repro.apps.kcore import kcore_decomposition
from repro.apps.sssp import sssp_bellman_ford
from repro.apps.triangles import count_triangles, count_triangles_reference
from repro.compression.golomb import RiceCodec, rice_encoded_bits
from repro.core.spmspv import spmspv, spmspv_dense_reference
from repro.formats.coo import COOMatrix

settings.register_profile("repro-apps", deadline=None, max_examples=25)
settings.load_profile("repro-apps")


@st.composite
def small_graphs(draw, max_nodes=24, max_edges=60):
    # Drawing (n, e, seed) and expanding with numpy keeps hypothesis
    # generation cheap while still exploring varied shapes; shrinking
    # works on the three scalars.
    n = draw(st.integers(2, max_nodes))
    n_edges = draw(st.integers(0, max_edges))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, n, size=n_edges).astype(np.int64)
    cols = rng.integers(0, n, size=n_edges).astype(np.int64)
    vals = rng.uniform(0.1, 5.0, size=n_edges)
    return COOMatrix.from_triples(n, n, rows, cols, vals)


@given(small_graphs())
def test_triangles_match_dense_reference(graph):
    assert count_triangles(graph) == count_triangles_reference(graph)


@given(small_graphs())
def test_components_consistent_with_edges(graph):
    labels = connected_components(graph)
    # Connected endpoints share labels; labels are component minima.
    assert np.array_equal(labels[graph.rows], labels[graph.cols])
    for label in np.unique(labels):
        members = np.nonzero(labels == label)[0]
        assert label == members.min()


@given(small_graphs())
def test_kcore_bounded_by_degree(graph):
    cores = kcore_decomposition(graph)
    n = graph.n_rows
    off = graph.rows != graph.cols
    src = np.concatenate([graph.rows[off], graph.cols[off]])
    dst = np.concatenate([graph.cols[off], graph.rows[off]])
    keys = src * n + dst
    _, first = np.unique(keys, return_index=True)
    degrees = np.bincount(src[first], minlength=n)
    assert np.all(cores <= degrees)
    assert np.all(cores >= 0)


@given(small_graphs(), st.integers(0, 23))
def test_sssp_triangle_inequality(graph, source):
    source = source % graph.n_rows
    dist = sssp_bellman_ford(graph, source)
    assert dist[source] == 0.0
    # Every edge satisfies the relaxed inequality at the fixpoint.
    finite = np.isfinite(dist[graph.rows])
    assert np.all(
        dist[graph.cols][finite] <= dist[graph.rows][finite] + graph.vals[finite] + 1e-9
    )


@given(small_graphs())
def test_spmspv_matches_dense_for_random_frontier(graph):
    rng = np.random.default_rng(0)
    size = rng.integers(0, graph.n_cols + 1)
    idx = np.sort(rng.choice(graph.n_cols, size=size, replace=False)).astype(np.int64)
    vals = rng.uniform(0.5, 1.5, size=idx.size)
    out_idx, out_val, _ = spmspv(graph, idx, vals)
    dense = np.zeros(graph.n_rows)
    dense[out_idx] = out_val
    assert np.allclose(dense, spmspv_dense_reference(graph, idx, vals), atol=1e-9)


@given(
    # Bounded deltas: a Rice code's unary run is delta >> k bits, so huge
    # deltas with k=0 would materialize million-bit runs.
    st.lists(st.integers(1, 1 << 14), min_size=1, max_size=40),
    st.integers(0, 12),
)
def test_rice_roundtrip_property(deltas, k):
    codec = RiceCodec(k)
    arr = np.array(deltas, dtype=np.int64)
    bits = codec.encode(arr)
    assert np.array_equal(codec.decode(bits, arr.size), arr)
    assert bits.size == int(rice_encoded_bits(arr, k).sum())
