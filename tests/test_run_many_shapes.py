"""Regression tests: ``run_many`` operand-shape normalization.

Historically a 1-D RHS (or a single-column matrix with an ambiguous
operand) fell through to a bare shape-mismatch error deep in the stack;
now 1-D operands of the right length are normalized to single-column
blocks and the ambiguous / transposed cases are rejected up front with
a :class:`~repro.faults.errors.ConfigurationError` that names the fix.
"""

import numpy as np
import pytest

from repro import create_engine
from repro.faults.errors import ConfigurationError
from repro.faults.validation import normalize_batch_operand
from repro.formats.coo import COOMatrix
from repro.generators import erdos_renyi_graph, rmat_graph


@pytest.fixture(scope="module")
def graph():
    return erdos_renyi_graph(n_nodes=300, avg_degree=4.0, seed=9)


@pytest.fixture(scope="module")
def engine():
    return create_engine(segment_width=128, backend="reference")


class TestNormalizeBatchOperand:
    def test_correct_block_passes_through(self):
        X = np.ones((5, 3))
        out = normalize_batch_operand(X, 5)
        assert out.shape == (5, 3)

    def test_1d_right_length_becomes_column(self):
        out = normalize_batch_operand(np.arange(5.0), 5)
        assert out.shape == (5, 1)
        np.testing.assert_array_equal(out[:, 0], np.arange(5.0))

    def test_1d_wrong_length_rejected_with_guidance(self):
        with pytest.raises(ConfigurationError, match=r"columns of shape \(5, k\)"):
            normalize_batch_operand(np.ones(4), 5)

    def test_transposed_block_rejected_with_guidance(self):
        with pytest.raises(ConfigurationError, match=r"\.T"):
            normalize_batch_operand(np.ones((3, 5)), 5)

    def test_square_block_is_trusted(self):
        # (n, n) is indistinguishable from its transpose by shape alone;
        # it must pass through untouched rather than be second-guessed.
        X = np.arange(25.0).reshape(5, 5)
        np.testing.assert_array_equal(normalize_batch_operand(X, 5), X)


class TestRunManyShapes:
    def test_1d_rhs_matches_run(self, graph, engine):
        x = np.random.default_rng(0).uniform(size=graph.n_cols)
        direct, _ = engine.run(graph, x)
        batched, _ = engine.run_many(graph, x)  # 1-D, normalized to (n, 1)
        assert batched.shape == (graph.n_rows, 1)
        assert np.array_equal(batched[:, 0], direct)

    def test_1d_wrong_length_raises_configuration_error(self, graph, engine):
        with pytest.raises(ConfigurationError, match="run_many"):
            engine.run_many(graph, np.ones(graph.n_cols + 1))

    def test_transposed_block_raises_configuration_error(self, graph, engine):
        X = np.ones((4, graph.n_cols))  # (k, n): transposed
        with pytest.raises(ConfigurationError, match="transposed"):
            engine.run_many(graph, X)

    def test_single_column_matrix_1d_rhs(self, engine):
        # The single-column edge case: n_cols == 1, so a length-1 vector
        # is one RHS and a length-k vector must be rejected, not guessed
        # to be k right-hand sides.
        matrix = COOMatrix.from_triples(4, 1, [0, 2, 3], [0, 0, 0], [1.0, 2.0, 3.0])
        y, _ = engine.run_many(matrix, np.array([2.0]))
        assert y.shape == (4, 1)
        np.testing.assert_array_equal(y[:, 0], [2.0, 0.0, 4.0, 6.0])
        with pytest.raises(ConfigurationError, match=r"\(1, k\)"):
            engine.run_many(matrix, np.array([1.0, 2.0, 3.0]))

    def test_1d_accumuland_normalized(self, graph, engine):
        x = np.ones(graph.n_cols)
        y0 = np.random.default_rng(1).uniform(size=graph.n_rows)
        direct, _ = engine.run(graph, x, y=y0.copy())
        batched, _ = engine.run_many(graph, x, Y=y0.copy())  # both 1-D
        assert np.array_equal(batched[:, 0], direct)


#: Wide enough that ``segment_width=1024`` cuts two or more stripes.
LAYOUT_GRAPHS = {
    "er": erdos_renyi_graph(n_nodes=1500, avg_degree=3.0, seed=4),
    "rmat": rmat_graph(scale=11, avg_degree=4.0, seed=5),
}
LAYOUT_CONFIGS = {
    "default": {},
    "width1024": {"segment_width": 1024},
    "check_interleave": {"check_interleave": True},
}


@pytest.fixture(scope="module")
def layout_engines():
    return {
        (backend, config): create_engine(backend=backend, **LAYOUT_CONFIGS[config])
        for backend in ("reference", "vectorized")
        for config in LAYOUT_CONFIGS
    }


class TestRunManyLayouts:
    """A column-major block folds one contiguous column at a time and a
    row-major one runs the position-major path; both must return the
    bytes of a per-column ``run``, signed zeros included."""

    @pytest.mark.parametrize("with_y", [False, True], ids=["noY", "Y"])
    @pytest.mark.parametrize("k", [0, 1, 2, 33])
    @pytest.mark.parametrize("graph_name", sorted(LAYOUT_GRAPHS))
    @pytest.mark.parametrize("config", sorted(LAYOUT_CONFIGS))
    @pytest.mark.parametrize("backend", ["reference", "vectorized"])
    def test_layouts_match_each_other_and_run(
        self, layout_engines, backend, config, graph_name, k, with_y
    ):
        engine = layout_engines[backend, config]
        matrix = LAYOUT_GRAPHS[graph_name]
        rng = np.random.default_rng(k)
        X = rng.standard_normal((matrix.n_cols, k))
        X[::3] = -0.0
        Y = rng.standard_normal((matrix.n_rows, k)) if with_y else None
        if with_y:
            Y[::4] = -0.0
        per_column = [
            engine.run(matrix, X[:, j], y=None if Y is None else Y[:, j]).y
            for j in range(k)
        ]
        outputs = {}
        for order in ("C", "F"):
            Xo = np.array(X, order=order)
            Yo = None if Y is None else np.array(Y, order=order)
            outputs[order] = engine.run_many(matrix, Xo, Y=Yo).y
            assert outputs[order].shape == (matrix.n_rows, k)
            for j in range(k):
                assert outputs[order][:, j].tobytes() == per_column[j].tobytes()
        assert outputs["C"].tobytes(order="C") == outputs["F"].tobytes(order="C")

    def test_column_major_result_is_column_major(self, layout_engines):
        # Without Y the result keeps X's memory order, so each column --
        # one served request -- is contiguous.
        engine = layout_engines["vectorized", "default"]
        matrix = LAYOUT_GRAPHS["er"]
        X = np.asfortranarray(np.ones((matrix.n_cols, 4)))
        assert engine.run_many(matrix, X).y.flags.f_contiguous
