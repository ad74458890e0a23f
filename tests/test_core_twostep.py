"""End-to-end tests for the Two-Step engine."""

import numpy as np
import pytest

from repro.core.config import TwoStepConfig
from repro.core.records import Precision
from repro.core.twostep import TwoStepEngine, reference_spmv
from repro.filters.hdn import HDNConfig
from repro.formats.hypersparse import StripeFormat
from repro.generators.erdos_renyi import erdos_renyi_graph
from repro.merge.prap import prap_merge_dense


def run(graph, x, **cfg_kwargs):
    defaults = dict(segment_width=256, q=2)
    defaults.update(cfg_kwargs)
    engine = TwoStepEngine(TwoStepConfig(**defaults))
    return engine.run(graph, x)


def test_matches_reference(small_er_graph, rng):
    x = rng.uniform(size=small_er_graph.n_cols)
    y, _ = run(small_er_graph, x)
    assert np.allclose(y, reference_spmv(small_er_graph, x))


def test_matches_reference_with_y(small_er_graph, rng):
    x = rng.uniform(size=small_er_graph.n_cols)
    y0 = rng.uniform(size=small_er_graph.n_rows)
    engine = TwoStepEngine(TwoStepConfig(segment_width=300, q=3))
    y, _ = engine.run(small_er_graph, x, y=y0)
    assert np.allclose(y, reference_spmv(small_er_graph, x, y0))


def test_matches_reference_powerlaw(small_rmat_graph, rng):
    x = rng.uniform(size=small_rmat_graph.n_cols)
    y, _ = run(small_rmat_graph, x, segment_width=333, q=4)
    assert np.allclose(y, reference_spmv(small_rmat_graph, x))


@pytest.mark.parametrize("segment_width", [64, 257, 1999, 10_000])
def test_stripe_width_does_not_change_result(small_er_graph, rng, segment_width):
    x = rng.uniform(size=small_er_graph.n_cols)
    y, report = run(small_er_graph, x, segment_width=segment_width)
    assert np.allclose(y, reference_spmv(small_er_graph, x))
    assert report.n_stripes == -(-small_er_graph.n_cols // segment_width)


def test_checked_interleave_path(small_er_graph, rng):
    """The engine's bytes equal the store-queue assembly of section 4.2.2
    (per-class missing-key injection, then the interleave) at one stripe
    and at several, for ``run`` and each ``run_many`` column."""
    x = rng.uniform(-1.0, 1.0, size=small_er_graph.n_cols)
    x[::5] = -0.0
    X = np.stack([x, -x, 0.5 * x], axis=1)
    for segment_width in (None, 256):
        engine = TwoStepEngine(TwoStepConfig(segment_width=segment_width, q=2))
        plan = engine.plan(small_er_graph)
        lists = engine._step1.run_planned(plan, x)
        checked = prap_merge_dense(
            lists, small_er_graph.n_rows, q=2, check_interleave=True
        )
        assert engine.run(small_er_graph, x).y.tobytes() == checked.tobytes()
        Y = engine.run_many(small_er_graph, X).y
        for j in range(X.shape[1]):
            column = engine._step1.run_planned(plan, X[:, j])
            checked = prap_merge_dense(
                column, small_er_graph.n_rows, q=2, check_interleave=True
            )
            assert np.ascontiguousarray(Y[:, j]).tobytes() == checked.tobytes()
        assert np.allclose(checked, reference_spmv(small_er_graph, X[:, -1]))


def test_x_shape_validated(small_er_graph):
    with pytest.raises(ValueError):
        run(small_er_graph, np.zeros(7))


def test_traffic_all_streaming(small_er_graph, rng):
    x = rng.uniform(size=small_er_graph.n_cols)
    _, report = run(small_er_graph, x)
    assert report.traffic.cache_line_wastage_bytes == 0.0
    assert report.traffic.total_bytes > 0


def test_traffic_intermediate_round_trip_symmetric(small_er_graph, rng):
    x = rng.uniform(size=small_er_graph.n_cols)
    _, report = run(small_er_graph, x)
    t = report.traffic
    assert t.intermediate_write_bytes == t.intermediate_read_bytes


def test_traffic_vector_bytes(small_er_graph, rng):
    x = rng.uniform(size=small_er_graph.n_cols)
    _, report = run(small_er_graph, x, precision=Precision.SINGLE)
    assert report.traffic.source_vector_bytes == small_er_graph.n_cols * 4
    assert report.traffic.result_vector_bytes == small_er_graph.n_rows * 4


def test_vldi_vector_reduces_intermediate_traffic(small_er_graph, rng):
    x = rng.uniform(size=small_er_graph.n_cols)
    _, plain = run(small_er_graph, x)
    _, compressed = run(small_er_graph, x, vldi_vector_block_bits=8)
    assert (
        compressed.traffic.intermediate_write_bytes < plain.traffic.intermediate_write_bytes
    )


def test_vldi_matrix_reduces_matrix_traffic(small_er_graph, rng):
    # Wide stripes make absolute column indices expensive (2 B each) while
    # the in-row deltas still fit one ~10-bit VLDI string.
    x = rng.uniform(size=small_er_graph.n_cols)
    _, plain = run(small_er_graph, x, segment_width=2000)
    _, compressed = run(small_er_graph, x, segment_width=2000, vldi_matrix_block_bits=10)
    assert compressed.traffic.matrix_bytes < plain.traffic.matrix_bytes


def test_vldi_does_not_change_result(small_er_graph, rng):
    x = rng.uniform(size=small_er_graph.n_cols)
    y_plain, _ = run(small_er_graph, x)
    y_vldi, _ = run(small_er_graph, x, vldi_vector_block_bits=6, vldi_matrix_block_bits=6)
    assert np.allclose(y_plain, y_vldi)


def test_hypersparse_stripes_use_rm_coo():
    graph = erdos_renyi_graph(5000, 1.5, seed=10)  # very sparse
    x = np.ones(graph.n_cols)
    _, report = run(graph, x, segment_width=250)
    # 20 stripes of ~375 nnz over 5000 rows -> all hypersparse.
    assert all(f is StripeFormat.RM_COO for f in report.stripe_formats)


def test_dense_stripes_use_csr():
    graph = erdos_renyi_graph(200, 50.0, seed=11)
    x = np.ones(graph.n_cols)
    _, report = run(graph, x, segment_width=200)
    assert all(f is StripeFormat.CSR for f in report.stripe_formats)


def test_intermediate_records_bounded(small_er_graph, rng):
    x = rng.uniform(size=small_er_graph.n_cols)
    _, report = run(small_er_graph, x)
    assert report.intermediate_records <= small_er_graph.nnz
    assert report.step2.input_records == report.intermediate_records


def test_hdn_config_populates_filter(small_rmat_graph, rng):
    x = rng.uniform(size=small_rmat_graph.n_cols)
    y, report = run(
        small_rmat_graph, x, hdn=HDNConfig(degree_threshold=32), segment_width=512
    )
    assert np.allclose(y, reference_spmv(small_rmat_graph, x))
    assert report.hdn_filter_bytes > 0
    assert report.step1.hdn_records + report.step1.general_records == small_rmat_graph.nnz


def test_precision_changes_traffic_not_result(small_er_graph, rng):
    x = rng.uniform(size=small_er_graph.n_cols)
    y64, r64 = run(small_er_graph, x, precision=Precision.DOUBLE)
    y16, r16 = run(small_er_graph, x, precision=Precision.HALF)
    assert np.allclose(y64, y16)  # datapath is float64 regardless
    assert r16.traffic.total_bytes < r64.traffic.total_bytes


def test_total_cycles_positive(small_er_graph, rng):
    x = rng.uniform(size=small_er_graph.n_cols)
    _, report = run(small_er_graph, x)
    assert report.total_cycles > 0
    assert report.total_cycles == report.step1.cycles + report.step2.cycles
