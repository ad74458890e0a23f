"""Differential battery for the first-class engine SpGEMM path.

The engine's ``C = A @ B`` (cached :class:`~repro.core.plan.SpGEMMPlan`
+ backend kernels) must be **bit-identical** -- not merely close -- to
two independent oracles on arbitrary inputs:

* the row-wise Gustavson reference (:func:`repro.core.spgemm.spgemm`),
  whose per-row merge-accumulation is the merge network's semantics; and
* an explicit dense oracle that accumulates rank-1 updates in ascending
  inner-index order with left-associated addition -- the exact float
  addition order both sparse paths realize.

Every execution backend (reference / vectorized) must agree, the symbolic plan must be reused argsort-free on
warm replays, and the traffic-style report fields must match across
backends.  Degenerate shapes, duplicate-coordinate assembly, empty
blocks and the typed inner-dimension error are pinned alongside.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import create_engine
from repro.apps import (
    bfs_levels_multi,
    bfs_levels_multi_spgemm,
    count_triangles,
    count_triangles_reference,
)
from repro.core.config import TwoStepConfig
from repro.core.spgemm import spgemm, spgemm_twostep
from repro.core.twostep import TwoStepEngine
from repro.faults.errors import ConfigurationError
from repro.formats.coo import COOMatrix
from repro.formats.io import write_matrix_market

# ---------------------------------------------------------------------------
# Oracles and builders
# ---------------------------------------------------------------------------


def dense_oracle(a: COOMatrix, b: COOMatrix) -> np.ndarray:
    """Dense product with the engine's exact addition order.

    Each cell accumulates ``A[i, k] * B[k, j]`` over ascending ``k`` with
    left-associated float addition -- the order the engine's block-major
    partial-product stream (and Gustavson's sorted per-row merge) add in,
    so equality can be asserted bitwise rather than with ``allclose``.
    """
    ad, bd = a.to_dense(), b.to_dense()
    out = np.zeros((a.n_rows, b.n_cols))
    for k in range(a.n_cols):
        out += np.outer(ad[:, k], bd[k, :])
    return out


def assert_products_bit_equal(c: COOMatrix, g: COOMatrix) -> None:
    assert c.shape == g.shape
    assert np.array_equal(c.rows, g.rows)
    assert np.array_equal(c.cols, g.cols)
    assert np.array_equal(c.vals, g.vals)  # bitwise, not allclose


def make_coo(rng, n_rows, n_cols, nnz, value_style="float64") -> COOMatrix:
    rows = rng.integers(0, n_rows, size=nnz)
    cols = rng.integers(0, n_cols, size=nnz)
    if value_style == "int":
        vals = rng.integers(-3, 4, size=nnz).astype(np.float64)
    elif value_style == "float32":
        vals = rng.uniform(-2.0, 2.0, size=nnz).astype(np.float32).astype(np.float64)
    else:
        vals = rng.uniform(-2.0, 2.0, size=nnz)
    return COOMatrix.from_triples(n_rows, n_cols, rows, cols, vals)


@st.composite
def spgemm_cases(draw, max_dim=32, max_nnz=120):
    """Random ``(A, B, segment_width)`` with varied value provenance.

    Duplicate coordinates are drawn with replacement on purpose:
    ``from_triples`` must canonicalize them identically on both sides of
    the differential.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(1, max_dim))
    k = draw(st.integers(1, max_dim))
    n = draw(st.integers(1, max_dim))
    style = draw(st.sampled_from(["int", "float32", "float64"]))
    a = make_coo(rng, m, k, draw(st.integers(0, max_nnz)), style)
    b = make_coo(rng, k, n, draw(st.integers(0, max_nnz)), style)
    segment_width = draw(st.integers(1, max_dim + 8))
    return a, b, segment_width


#: Every backend.  The ids keep the names these cells had when the grid
#: also swept a thread count.
BACKEND_GRID = [
    pytest.param("reference", id="reference-1"),
    pytest.param("vectorized", id="vectorized-1"),
]


def build_engine(backend: str, segment_width: int) -> TwoStepEngine:
    config = TwoStepConfig(segment_width=segment_width, backend=backend)
    return TwoStepEngine(config)


# ---------------------------------------------------------------------------
# The differential property: engine == Gustavson == dense, bit for bit
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKEND_GRID)
@given(case=spgemm_cases())
@settings(max_examples=15, deadline=None)
def test_engine_matches_gustavson_and_dense(backend, case):
    a, b, segment_width = case
    gustavson = spgemm(a, b)
    engine = build_engine(backend, segment_width)
    result = engine.spgemm(a, b, verify=True)
    assert_products_bit_equal(result.c, gustavson)
    assert np.array_equal(result.c.to_dense(), dense_oracle(a, b))
    assert result.verified
    assert result.report.backend == backend


@given(case=spgemm_cases(max_dim=24, max_nnz=80))
@settings(max_examples=20, deadline=None)
def test_engine_matches_twostep_reference(case):
    """The engine agrees with the pre-engine two-step scheduler too."""
    a, b, segment_width = case
    engine = build_engine("vectorized", segment_width)
    c = engine.spgemm(a, b).c
    twostep_c, stats = spgemm_twostep(a, b, segment_width)
    assert np.allclose(c.to_dense(), twostep_c.to_dense())
    # The engine counts the raw partial-product stream; spgemm_twostep
    # canonicalizes duplicates inside each block before counting, so the
    # engine's traffic is an upper bound with the same output.
    report = engine.spgemm(a, b).report
    assert report.partial_records >= stats["partial_records"]
    assert report.output_records == twostep_c.nnz


def test_report_ledger_equal_across_backends(rng):
    """n_blocks / record counts / compression are backend-invariant."""
    a = make_coo(rng, 40, 30, 200)
    b = make_coo(rng, 30, 25, 180)
    reports = []
    for backend in ("reference", "vectorized"):
        engine = build_engine(backend, segment_width=9)
        reports.append(engine.spgemm(a, b).report)
    baseline = reports[0]
    for report in reports[1:]:
        assert report.n_blocks == baseline.n_blocks
        assert report.partial_records == baseline.partial_records
        assert report.output_records == baseline.output_records
        assert report.compression == baseline.compression


# ---------------------------------------------------------------------------
# Plan caching: warm replays are argsort-free
# ---------------------------------------------------------------------------


def test_warm_replay_hits_cached_spgemm_plan(rng):
    a = make_coo(rng, 30, 30, 120)
    b = make_coo(rng, 30, 20, 100)
    engine = create_engine(backend="vectorized", segment_width=8)
    cold = engine.spgemm(a, b)
    assert cold.telemetry.metrics.total("spgemm_plan_builds_total") == 1
    warm = engine.spgemm(a, b)
    # Second run with the same B object: symbolic structure (argsort,
    # run offsets, gather maps) is reused, nothing is rebuilt.
    assert warm.telemetry.metrics.total("spgemm_plan_builds_total") == 0
    assert warm.telemetry.metrics.total("spgemm_plan_hits_total") == 1
    assert warm.report.plan_cache_hits >= 1
    assert_products_bit_equal(cold.c, warm.c)


def test_spgemm_plan_cache_keyed_by_rhs_identity(rng):
    a = make_coo(rng, 20, 20, 80)
    b1 = make_coo(rng, 20, 15, 60)
    b2 = make_coo(rng, 20, 15, 60)
    engine = create_engine(backend="vectorized", segment_width=8)
    engine.spgemm(a, b1)
    fresh = engine.spgemm(a, b2)
    assert fresh.telemetry.metrics.total("spgemm_plan_builds_total") == 1
    assert np.array_equal(fresh.c.to_dense(), dense_oracle(a, b2))


def test_run_spgemm_many_shares_left_plan(rng):
    a = make_coo(rng, 25, 25, 100)
    bs = [make_coo(rng, 25, 18, 70) for _ in range(3)]
    engine = create_engine(backend="vectorized", segment_width=8)
    results = engine.run_spgemm_many(a, bs, verify=True)
    assert len(results) == 3
    assert all(r.verified for r in results)
    # One symbolic SpMV plan for A serves the whole batch.
    assert engine.plan_cache_stats["misses"] == 1
    assert engine.plan_cache_stats["hits"] == len(bs) - 1
    for b, r in zip(bs, results):
        assert_products_bit_equal(r.c, spgemm(a, b))


# ---------------------------------------------------------------------------
# Degenerate shapes, empty structure, duplicate assembly
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKEND_GRID)
def test_degenerate_shapes(backend, rng):
    engine = build_engine(backend, segment_width=3)
    cases = [
        (make_coo(rng, 1, 20, 12), make_coo(rng, 20, 1, 12)),  # 1xN @ Nx1
        (make_coo(rng, 20, 1, 12), make_coo(rng, 1, 20, 12)),  # Nx1 @ 1xN
        (make_coo(rng, 1, 1, 1), make_coo(rng, 1, 1, 1)),
    ]
    for a, b in cases:
        result = engine.spgemm(a, b, verify=True)
        assert result.verified
        assert_products_bit_equal(result.c, spgemm(a, b))
        assert np.array_equal(result.c.to_dense(), dense_oracle(a, b))


@pytest.mark.parametrize("backend", BACKEND_GRID)
def test_empty_operands_and_all_zero_blocks(backend, rng):
    engine = build_engine(backend, segment_width=4)
    empty = COOMatrix(
        6, 8, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), np.empty(0)
    )
    b = make_coo(rng, 8, 5, 20)
    c = engine.spgemm(empty, b).c
    assert c.nnz == 0 and c.shape == (6, 5)

    a = make_coo(rng, 6, 8, 20)
    empty_b = COOMatrix(
        8, 5, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), np.empty(0)
    )
    c = engine.spgemm(a, empty_b).c
    assert c.nnz == 0 and c.shape == (6, 5)

    # A's nonzeros confined to one column block: the other blocks are
    # all-zero and must contribute zero records, not crash the sharding.
    rows = np.arange(6, dtype=np.int64)
    cols = np.full(6, 9, dtype=np.int64)  # all in block [8, 12)
    sparse_a = COOMatrix.from_triples(6, 16, rows, cols, np.ones(6))
    dense_b = make_coo(rng, 16, 4, 40)
    result = engine.spgemm(sparse_a, dense_b, verify=True)
    assert result.verified
    assert_products_bit_equal(result.c, spgemm(sparse_a, dense_b))

    # B with rows that have no nonzeros: records for those inner indices
    # simply never materialize.
    hollow_b = COOMatrix.from_triples(
        8, 5, np.zeros(3, dtype=np.int64), np.arange(3), np.ones(3)
    )
    result = engine.spgemm(a, hollow_b, verify=True)
    assert result.verified


def test_zero_width_rhs(rng):
    a = make_coo(rng, 5, 4, 10)
    b = COOMatrix(
        4, 0, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), np.empty(0)
    )
    engine = create_engine(backend="vectorized", segment_width=2)
    c = engine.spgemm(a, b).c
    assert c.shape == (5, 0) and c.nnz == 0


def test_duplicate_coordinate_assembly(rng):
    """Duplicate (row, col) triples canonicalize before multiplication."""
    rows = np.array([0, 0, 0, 1, 1], dtype=np.int64)
    cols = np.array([2, 2, 2, 0, 0], dtype=np.int64)
    vals = np.array([1.0, 2.0, 3.0, 5.0, -5.0])
    a = COOMatrix.from_triples(2, 3, rows, cols, vals)  # includes exact-zero nnz
    b = make_coo(rng, 3, 4, 8)
    engine = create_engine(backend="vectorized", segment_width=2)
    result = engine.spgemm(a, b, verify=True)
    assert result.verified
    assert_products_bit_equal(result.c, spgemm(a, b))


# ---------------------------------------------------------------------------
# Typed configuration errors
# ---------------------------------------------------------------------------


def test_inner_dimension_mismatch_is_configuration_error(rng):
    a = make_coo(rng, 4, 5, 8)
    b = make_coo(rng, 6, 3, 8)
    engine = create_engine(backend="vectorized", segment_width=4)
    with pytest.raises(ConfigurationError, match="inner dimensions"):
        engine.spgemm(a, b)
    with pytest.raises(ConfigurationError, match="4x5.*6x3"):
        spgemm(a, b)
    with pytest.raises(ConfigurationError):
        spgemm_twostep(a, b, 4)
    # Back-compat: ConfigurationError subclasses ValueError, so historic
    # `except ValueError` call sites still catch the mismatch.
    with pytest.raises(ValueError):
        spgemm(a, b)


# ---------------------------------------------------------------------------
# Apps on the engine path
# ---------------------------------------------------------------------------


def test_count_triangles_engine_parity(rng):
    adj = make_coo(rng, 25, 25, 90, "int")
    engine = create_engine(backend="vectorized", segment_width=8)
    expected = count_triangles_reference(adj)
    assert count_triangles(adj) == expected
    assert count_triangles(adj, engine=engine) == expected


def test_bfs_multi_spgemm_matches_spmv_formulation(rng):
    n = 30
    adj = make_coo(rng, n, n, 70, "int")
    sources = [0, 7, n - 1]
    expected = bfs_levels_multi(adj, sources)
    assert np.array_equal(bfs_levels_multi_spgemm(adj, sources), expected)
    engine = create_engine(backend="vectorized", segment_width=8)
    assert np.array_equal(
        bfs_levels_multi_spgemm(adj, sources, engine=engine), expected
    )


# ---------------------------------------------------------------------------
# CLI smoke
# ---------------------------------------------------------------------------


def test_cli_spgemm_smoke(tmp_path, capsys, rng):
    from repro.cli import main

    a = make_coo(rng, 12, 12, 30)
    path = tmp_path / "a.mtx"
    out = tmp_path / "c.mtx"
    write_matrix_market(a, str(path))
    code = main(
        ["spgemm", str(path), "--segment-width", "4", "--verify", "--output", str(out)]
    )
    captured = capsys.readouterr().out
    assert code == 0
    assert "verified against dense product: OK" in captured
    assert out.exists()


def test_cli_spgemm_dimension_mismatch_exit_code(tmp_path, capsys, rng):
    from repro.cli import main

    a = make_coo(rng, 4, 5, 6)
    b = make_coo(rng, 6, 3, 6)
    pa, pb = tmp_path / "a.mtx", tmp_path / "b.mtx"
    write_matrix_market(a, str(pa))
    write_matrix_market(b, str(pb))
    code = main(["spgemm", str(pa), "--rhs", str(pb)])
    assert code == 2
    assert "inner dimensions" in capsys.readouterr().err
