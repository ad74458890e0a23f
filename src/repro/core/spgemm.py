"""Sparse general matrix-matrix multiply (SpGEMM) on the merge substrate.

The paper's conclusion notes that "merge-sort and sparse accumulation are
fundamental operations in many other applications" and proposes exploring
the architecture beyond SpMV.  SpGEMM (``C = A @ B``) is the canonical
such application: row-wise SpGEMM forms each ``C[i, :]`` as the
merge-accumulation of the sparse rows ``B[k, :]`` scaled by ``A[i, k]`` --
exactly the multi-way merge-with-accumulation the Merge Core performs.

:func:`spgemm` is that row-wise Gustavson product, using
:func:`merge_accumulate` per row (the merge network's operation, row at
a time).  It is the test oracle, not the production path.

The *engine* path -- ``create_engine().spgemm(a, b)`` -- is the
Two-Step schedule: it column-blocks ``A`` with the same stripes as
SpMV, emits the partial-product stream per block and multi-way merges
it, caching the symbolic structure
(:class:`~repro.core.plan.SpGEMMPlan`) on ``A``'s execution plan so warm
replays are argsort-free.  Its report counts the partial products the
merge absorbs.  The engine is bit-identical to :func:`spgemm` by
construction, and the differential suite checks it against
:func:`spgemm`, a dense oracle and ``scipy.sparse``.
"""

from __future__ import annotations

import numpy as np

from repro.faults.errors import ConfigurationError
from repro.formats.convert import coo_to_csr
from repro.formats.coo import COOMatrix
from repro.merge.tournament import merge_accumulate


def spgemm(a: COOMatrix, b: COOMatrix) -> COOMatrix:
    """Row-wise SpGEMM ``C = A @ B`` via per-row multi-way merge.

    For each row ``i`` of ``A``, the sparse rows ``B[k, :]`` selected by
    ``A[i, k]`` are scaled and merge-accumulated into ``C[i, :]``.

    Args:
        a: Left operand (``m x k``).
        b: Right operand (``k x n``).

    Returns:
        The product in canonical RM-COO.

    Raises:
        ConfigurationError: Inner dimensions differ (a ``ValueError``
            subclass, so ``except ValueError`` call sites keep working).
    """
    if a.n_cols != b.n_rows:
        raise ConfigurationError(
            f"spgemm inner dimensions differ: A is {a.n_rows}x{a.n_cols}, "
            f"B is {b.n_rows}x{b.n_cols}"
        )
    a_csr = coo_to_csr(a)
    b_csr = coo_to_csr(b)
    out_rows, out_cols, out_vals = [], [], []
    for i in range(a.n_rows):
        a_cols, a_vals = a_csr.row(i)
        if a_cols.size == 0:
            continue
        lists = []
        for k, scale in zip(a_cols.tolist(), a_vals.tolist()):
            b_cols, b_vals = b_csr.row(k)
            if b_cols.size:
                lists.append((b_cols, b_vals * scale))
        if not lists:
            continue
        merged_cols, merged_vals = merge_accumulate(lists)
        out_rows.append(np.full(merged_cols.size, i, dtype=np.int64))
        out_cols.append(merged_cols)
        out_vals.append(merged_vals)
    if not out_rows:
        return COOMatrix(
            a.n_rows, b.n_cols, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), np.empty(0)
        )
    return COOMatrix(
        a.n_rows,
        b.n_cols,
        np.concatenate(out_rows),
        np.concatenate(out_cols),
        np.concatenate(out_vals),
    )
