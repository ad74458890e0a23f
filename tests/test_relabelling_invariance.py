"""Two-Step SpMV commutes with a symmetric relabelling of the matrix.

For a permutation ``P``, ``(P A P^T)(P x) = P (A x)``.  The engine must
honour that on every generator family and backend, although relabelling
moves nonzeros between stripes and changes which rows collide in step 1.
The degree multiset, and so the set of high-degree nodes up to the
relabelling, must not change either.
"""

import numpy as np
import pytest

from repro.core.config import TwoStepConfig
from repro.core.twostep import TwoStepEngine
from repro.filters.hdn import find_hdns
from repro.formats.coo import COOMatrix
from repro.generators.erdos_renyi import erdos_renyi_graph
from repro.generators.mesh import mesh_graph
from repro.generators.rmat import rmat_graph

FAMILIES = {
    "er": lambda: erdos_renyi_graph(1500, 4.0, seed=5),
    "rmat": lambda: rmat_graph(10, 6.0, seed=6),
    "mesh": lambda: mesh_graph(1500, 4.0, seed=7, band=12),
}


def _relabel(matrix, label):
    return COOMatrix.from_triples(
        matrix.n_rows, matrix.n_cols, label[matrix.rows], label[matrix.cols], matrix.vals
    )


@pytest.mark.parametrize("backend", ["reference", "vectorized"])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_engine_commutes_with_relabelling(family, backend):
    matrix = FAMILIES[family]()
    rng = np.random.default_rng(11)
    label = rng.permutation(matrix.n_rows).astype(np.int64)
    relabelled = _relabel(matrix, label)
    x = rng.uniform(size=matrix.n_cols)
    x_relabelled = np.empty_like(x)
    x_relabelled[label] = x

    engine = TwoStepEngine(TwoStepConfig(segment_width=256, q=2, backend=backend))
    y, _ = engine.run(matrix, x)
    y_relabelled, report = engine.run(relabelled, x_relabelled)

    assert relabelled.nnz == matrix.nnz
    assert np.allclose(y_relabelled[label], y)
    assert np.allclose(y_relabelled, relabelled.spmv(x_relabelled))
    assert report.traffic.cache_line_wastage_bytes == 0.0


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_hdn_set_follows_relabelling(family):
    matrix = FAMILIES[family]()
    label = np.random.default_rng(12).permutation(matrix.n_rows).astype(np.int64)
    relabelled = _relabel(matrix, label)
    degrees = matrix.row_degrees()
    assert np.array_equal(np.sort(relabelled.row_degrees()), np.sort(degrees))
    threshold = max(2, int(np.percentile(degrees, 95)))
    hdns = find_hdns(degrees, threshold)
    assert hdns.size > 0
    moved = find_hdns(relabelled.row_degrees(), threshold)
    assert np.array_equal(np.sort(label[hdns]), np.sort(moved))
