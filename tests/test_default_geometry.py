"""Execution geometry derived from the matrix.

With no ``segment_width`` the engine plans one stripe spanning every
column and skips the step-2 merge.  These tests pin that contract from
two sides: an independent oracle (SciPy's CSR product) for the default
path, and the modelled geometry (an explicit width or a design point),
which must keep its multi-stripe plans and its reports.
"""

import hashlib
import json

import numpy as np
import pytest

from repro import create_engine
from repro.core.config import TwoStepConfig
from repro.core.twostep import TwoStepEngine
from repro.formats.coo import COOMatrix
from repro.generators import erdos_renyi_graph, rmat_graph

sparse = pytest.importorskip("scipy.sparse")


def _csr(matrix):
    return sparse.csr_matrix(
        (matrix.vals, (matrix.rows, matrix.cols)),
        shape=(matrix.n_rows, matrix.n_cols),
    )


def _coo(n_rows, n_cols, rows=(), cols=(), vals=()):
    return COOMatrix(
        n_rows,
        n_cols,
        np.asarray(rows, dtype=np.int64),
        np.asarray(cols, dtype=np.int64),
        np.asarray(vals, dtype=np.float64),
    )


#: Wider than the 8192-column stripes a design point simulates.
WIDE_ER = erdos_renyi_graph(20_000, 3.0, seed=5)
WIDE_RMAT = rmat_graph(14, 4.0, seed=3)

DEGENERATE = {
    "nnz0": _coo(6, 9),
    "single": _coo(7, 9, [3], [8], [-1.5]),
    "n1": _coo(1, 1, [0], [0], [2.5]),
    "empty_rows_cols": _coo(8, 10, [1, 1, 4, 6], [0, 7, 7, 2], [1.0, -2.0, 0.5, 3.0]),
    "n_cols0": _coo(5, 0),
    "n_rows0": _coo(0, 4),
}

MATRICES = {"er": WIDE_ER, "rmat": WIDE_RMAT, **DEGENERATE}

#: Square operands for ``A @ A``: the wide matrices' partial-product
#: streams would make the test slow, so SpGEMM uses smaller ones.
SPGEMM_MATRICES = {
    "er": erdos_renyi_graph(3000, 4.0, seed=6),
    "rmat": rmat_graph(11, 4.0, seed=4),
    "n1": DEGENERATE["n1"],
    "empty_rows_cols": _coo(
        8, 8, [1, 1, 4, 6, 7], [0, 7, 7, 1, 1], [1.0, -2.0, 0.5, 3.0, -0.0]
    ),
}


def _x(n, seed=0):
    return np.random.default_rng(seed).standard_normal(n)


class TestSciPyOracle:
    """The default path equals ``csr @ x`` bit for bit; multi-stripe
    merges and SpGEMM agree with SciPy to rounding."""

    @pytest.mark.parametrize("name", sorted(MATRICES))
    def test_run_matches_scipy(self, name):
        matrix = MATRICES[name]
        x = _x(matrix.n_cols)
        y = create_engine().run(matrix, x).y
        assert np.array_equal(y, _csr(matrix) @ x)

    @pytest.mark.parametrize("name", sorted(MATRICES))
    def test_run_many_columns_match_scipy(self, name):
        matrix = MATRICES[name]
        X = np.random.default_rng(1).standard_normal((matrix.n_cols, 5))
        Y = create_engine().run_many(matrix, X).y
        csr = _csr(matrix)
        assert Y.shape == (matrix.n_rows, 5)
        for j in range(5):
            assert np.array_equal(Y[:, j], csr @ X[:, j])

    def test_accumuland_is_added_once(self):
        x = _x(WIDE_ER.n_cols)
        y0 = _x(WIDE_ER.n_rows, seed=2)
        result = create_engine().run(WIDE_ER, x, y=y0).y
        assert np.array_equal(result, (_csr(WIDE_ER) @ x) + y0)

    @pytest.mark.parametrize("check_interleave", [False, True])
    @pytest.mark.parametrize("name", ["er", "rmat"])
    def test_multi_stripe_run_matches_scipy(self, name, check_interleave):
        matrix = MATRICES[name]
        x = _x(matrix.n_cols)
        engine = create_engine(segment_width=1024, check_interleave=check_interleave)
        result = engine.run(matrix, x)
        assert result.report.n_stripes > 1
        np.testing.assert_allclose(result.y, _csr(matrix) @ x, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("check_interleave", [False, True])
    @pytest.mark.parametrize("name", ["er", "rmat"])
    def test_multi_stripe_run_many_matches_scipy(self, name, check_interleave):
        matrix = MATRICES[name]
        X = np.random.default_rng(1).standard_normal((matrix.n_cols, 3))
        engine = create_engine(segment_width=1024, check_interleave=check_interleave)
        result = engine.run_many(matrix, X)
        assert result.report.n_stripes > 1
        np.testing.assert_allclose(result.y, _csr(matrix) @ X, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("segment_width", [None, 1024])
    @pytest.mark.parametrize("name", sorted(SPGEMM_MATRICES))
    def test_spgemm_matches_scipy(self, name, segment_width):
        matrix = SPGEMM_MATRICES[name]
        c = create_engine(segment_width=segment_width).spgemm(matrix, matrix).c
        got = _csr(c)
        want = _csr(matrix) @ _csr(matrix)
        for product in (got, want):
            product.eliminate_zeros()
            product.sort_indices()
        assert got.shape == want.shape
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        np.testing.assert_allclose(got.data, want.data, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("name", ["er", "rmat"])
    def test_reference_backend_agrees(self, name):
        matrix = MATRICES[name]
        x = _x(matrix.n_cols)
        fast = create_engine(backend="vectorized").run(matrix, x).y
        oracle = create_engine(backend="reference").run(matrix, x).y
        assert np.array_equal(fast, oracle)


class TestGeometryContract:
    def test_default_engine_plans_one_stripe(self):
        assert WIDE_ER.n_cols > 8192
        for engine in (create_engine(), TwoStepEngine(TwoStepConfig())):
            assert len(engine.plan(WIDE_ER).stripes) == 1
            assert engine.run(WIDE_ER, _x(WIDE_ER.n_cols)).report.n_stripes == 1

    def test_default_engine_builds_no_step2_symbolic(self):
        engine = create_engine(telemetry=True)
        engine.run(WIDE_ER, _x(WIDE_ER.n_cols))
        engine.run_many(WIDE_ER, np.ones((WIDE_ER.n_cols, 3)))
        metrics = engine.metrics()
        assert metrics.total("spmv_plan_symbolic_builds_total") == 0
        assert metrics.total("spmv_records_merged_total") == 0

    def test_check_interleave_still_merges_one_stripe(self):
        x = _x(WIDE_ER.n_cols)
        X = np.random.default_rng(4).standard_normal((WIDE_ER.n_cols, 3))
        checked = create_engine(check_interleave=True, telemetry=True)
        default = create_engine()
        result = checked.run(WIDE_ER, x)
        assert result.report.n_stripes == 1
        assert np.array_equal(result.y, default.run(WIDE_ER, x).y)
        assert np.array_equal(
            checked.run_many(WIDE_ER, X).y, default.run_many(WIDE_ER, X).y
        )
        metrics = checked.metrics()
        assert metrics.total("spmv_plan_symbolic_builds_total") == 1
        assert metrics.total("spmv_records_merged_total") > 0

    @staticmethod
    def _digest(report) -> str:
        payload = report.to_dict()
        payload.pop("plan_build_s")  # wall-clock, not geometry
        blob = json.dumps(payload, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]

    @pytest.mark.parametrize(
        "options, run_digest, batch_digest",
        [
            ({"segment_width": 8192}, "e6cb149f72677496", "b5a4b7c3b206eeed"),
            ({"design_point": "TS_ASIC"}, "325ad09143669c9f", "4514d42293bfc422"),
        ],
        ids=["segment_width", "design_point"],
    )
    def test_modelled_geometry_keeps_its_reports(
        self, options, run_digest, batch_digest
    ):
        # Digests of report.to_dict() recorded before the execution
        # geometry was split from the modelled one.
        x = np.linspace(-1.0, 1.0, WIDE_ER.n_cols)
        X = np.stack([x, x[::-1]], axis=1)
        engine = create_engine(backend="vectorized", **options)
        report = engine.run(WIDE_ER, x).report
        assert report.n_stripes == 3
        assert self._digest(report) == run_digest
        batch = create_engine(backend="vectorized", **options).run_many(WIDE_ER, X)
        assert self._digest(batch.report) == batch_digest

    def test_design_point_simulates_at_8192(self):
        accel = create_engine(design_point="TS_ASIC")
        assert accel.config.segment_width == 8192
        assert create_engine().config.segment_width is None

    def test_stripe_width_derivation(self):
        assert TwoStepConfig().stripe_width(20_000) == 20_000
        assert TwoStepConfig().stripe_width(0) == 1
        assert TwoStepConfig().n_stripes(20_000) == 1
        assert TwoStepConfig(segment_width=8192).n_stripes(20_000) == 3


#: One-stripe cases at the edges of the dense fold, each as
#: ``(matrix, x, y)``; the products of "negative_zero" are all -0.0.
FOLD_CASES = {
    "trailing_empty_rows": (
        _coo(9, 6, [0, 0, 2, 4], [1, 5, 0, 3], [1.5, -2.0, 0.25, 3.0]),
        np.array([1.0, -3.0, 0.5, 2.0, 7.0, -1.25]),
        None,
    ),
    "nnz0": (_coo(6, 9), np.arange(9.0), None),
    "n1": (_coo(1, 1, [0], [0], [2.5]), np.array([-4.0]), None),
    "negative_zero": (
        _coo(4, 3, [0, 0, 2, 3], [0, 1, 2, 0], [1.0, -1.0, -2.0, 3.0]),
        np.array([-0.0, 0.0, 0.0]),
        None,
    ),
    "accumuland": (
        _coo(7, 5, [1, 1, 3, 6], [0, 4, 2, 2], [2.0, -1.0, 0.5, 4.0]),
        np.array([1.0, 2.0, -3.0, 0.5, 8.0]),
        np.array([0.5, -0.0, 1.0, -2.0, 0.0, 3.0, -0.0]),
    ),
}


class TestDenseFold:
    """A default ``run`` accumulates step 1 straight into the result
    (the backends' ``stripe_spmv_dense`` hook); it must keep the bytes of
    the reference oracle and of SciPy at the edges of that fold."""

    @pytest.mark.parametrize("backend", ["reference", "vectorized"])
    @pytest.mark.parametrize("case", sorted(FOLD_CASES))
    def test_fold_matches_oracle_and_scipy(self, case, backend):
        matrix, x, y = FOLD_CASES[case]
        got = create_engine(backend=backend).run(matrix, x, y=y).y
        oracle = create_engine(backend="reference").run(matrix, x, y=y).y
        want = _csr(matrix) @ x if y is None else (_csr(matrix) @ x) + y
        assert got.dtype == np.float64 and got.shape == (matrix.n_rows,)
        assert got.tobytes() == oracle.tobytes()
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_negative_zero_rows_are_positive_zero(self):
        matrix, x, _ = FOLD_CASES["negative_zero"]
        got = create_engine(backend="vectorized").run(matrix, x).y
        assert got[0] == 0.0 and not np.signbit(got[0])

    @pytest.mark.parametrize("backend", ["reference", "vectorized"])
    def test_only_single_rhs_one_stripe_runs_take_the_fold(self, backend, monkeypatch):
        engine = create_engine(backend=backend)
        calls = []
        cls = type(engine.backend)
        original = cls.stripe_spmv_dense

        def counting(self, stripe, x_segment, n_out):
            calls.append(n_out)
            return original(self, stripe, x_segment, n_out)

        monkeypatch.setattr(cls, "stripe_spmv_dense", counting)
        matrix, x, y = FOLD_CASES["accumuland"]
        engine.run(matrix, x, y=y)
        assert calls == [matrix.n_rows]
        engine.run_many(matrix, np.stack([x, x], axis=1))
        create_engine(backend=backend, check_interleave=True).run(matrix, x)
        create_engine(backend=backend, segment_width=2).run(matrix, x)
        assert calls == [matrix.n_rows]

    @pytest.mark.parametrize("backend", ["reference", "vectorized"])
    @pytest.mark.parametrize("case", sorted(FOLD_CASES))
    def test_column_major_run_many_matches_scipy(self, case, backend):
        matrix, x, y = FOLD_CASES[case]
        X = np.stack([x, -x, 0.5 * x]).T
        Y = None if y is None else np.stack([y, -y, y]).T
        assert X.flags.f_contiguous
        got = create_engine(backend=backend).run_many(matrix, X, Y=Y).y
        want = _csr(matrix) @ X if Y is None else (_csr(matrix) @ X) + Y
        assert got.dtype == np.float64 and got.shape == (matrix.n_rows, 3)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
        for j in range(3):
            column = create_engine(backend=backend).run(
                matrix, X[:, j], y=None if Y is None else Y[:, j]
            ).y
            assert got[:, j].tobytes() == column.tobytes()

    @pytest.mark.parametrize("backend", ["reference", "vectorized"])
    def test_column_major_run_many_folds_each_column(self, backend, monkeypatch):
        engine = create_engine(backend=backend)
        calls = []
        cls = type(engine.backend)
        original = cls.stripe_spmv_dense

        def counting(self, stripe, x_segment, n_out):
            calls.append(x_segment.flags.c_contiguous)
            return original(self, stripe, x_segment, n_out)

        monkeypatch.setattr(cls, "stripe_spmv_dense", counting)
        matrix, x, _ = FOLD_CASES["accumuland"]
        X = np.stack([x, 2.0 * x, -x]).T
        engine.run_many(matrix, X)
        assert calls == [True] * 3
        engine.run_many(matrix, x[:, None])
        assert calls == [True] * 4
        engine.run_many(matrix, np.ascontiguousarray(X))
        create_engine(backend=backend, check_interleave=True).run_many(matrix, X)
        create_engine(backend=backend, segment_width=2).run_many(matrix, X)
        assert calls == [True] * 4
