"""Sparse general matrix-matrix multiply (SpGEMM) on the merge substrate.

The paper's conclusion notes that "merge-sort and sparse accumulation are
fundamental operations in many other applications" and proposes exploring
the architecture beyond SpMV.  SpGEMM (``C = A @ B``) is the canonical
such application: row-wise SpGEMM forms each ``C[i, :]`` as the
merge-accumulation of the sparse rows ``B[k, :]`` scaled by ``A[i, k]`` --
exactly the multi-way merge-with-accumulation the Merge Core performs.

Two implementations:

* :func:`spgemm` -- row-wise Gustavson using :func:`merge_accumulate`
  per row (the merge network's operation, row at a time).
* :func:`spgemm_twostep` -- the Two-Step analogue: column-block ``A``,
  produce partial-product matrices per block, and multi-way merge them,
  mirroring how the accelerator would schedule SpGEMM with the same
  stripe/merge machinery.  Includes a traffic accounting hook.

Both are verified against the dense product in tests.

The *engine* path -- ``create_engine().spgemm(a, b)`` -- supersedes
these for production use: it caches the symbolic structure
(:class:`~repro.core.plan.SpGEMMPlan`) on ``A``'s execution plan so warm
replays are argsort-free, dispatches through the execution backends
(reference / vectorized), and is bit-identical to :func:`spgemm`
by construction.  :func:`spgemm` remains the row-wise Gustavson
reference the differential suite checks the engine against.
"""

from __future__ import annotations

import numpy as np

from repro.faults.errors import ConfigurationError
from repro.formats.blocking import column_blocks
from repro.formats.convert import coo_to_csr
from repro.formats.coo import COOMatrix
from repro.merge.tournament import merge_accumulate


def _check_inner_dimensions(a: COOMatrix, b: COOMatrix) -> None:
    """Raise the typed error both SpGEMM entry points share.

    Raises:
        ConfigurationError: ``a.n_cols != b.n_rows`` (a ``ValueError``
            subclass, so pre-existing ``except ValueError`` call sites
            keep working).
    """
    if a.n_cols != b.n_rows:
        raise ConfigurationError(
            f"spgemm inner dimensions differ: A is {a.n_rows}x{a.n_cols}, "
            f"B is {b.n_rows}x{b.n_cols}"
        )


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
        ConfigurationError: Inner dimensions differ.
    """
    _check_inner_dimensions(a, b)
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


def spgemm_twostep(a: COOMatrix, b: COOMatrix, segment_width: int) -> tuple:
    """Two-Step-scheduled SpGEMM with partial-product merging.

    Step 1: column-block ``A``; for block ``k`` the rows of ``B`` indexed
    by the block's columns are scratchpad-resident, and streaming the
    block's nonzeros emits a *partial product matrix* ``P_k`` in row-major
    order (the SpGEMM analogue of the intermediate sparse vector).
    Step 2: the ``P_k`` are multi-way merged with accumulation into ``C``.

    Args:
        a: Left operand.
        b: Right operand.
        segment_width: Columns of ``A`` (= rows of ``B``) per block; the
            rows of ``B`` in a block take the scratchpad's place.

    Returns:
        ``(C, stats)`` where stats counts partial-product records -- the
        intermediate traffic the merge network absorbs.

    Raises:
        ConfigurationError: Inner dimensions differ (previously this
            surfaced only as the per-row kernel's raw shape error).
    """
    _check_inner_dimensions(a, b)
    b_csr = coo_to_csr(b)
    partials = []
    partial_records = 0
    for block in column_blocks(a, segment_width):
        stripe = block.matrix
        if stripe.nnz == 0:
            continue
        rows_chunks, cols_chunks, vals_chunks = [], [], []
        for r, local_c, v in zip(
            stripe.rows.tolist(), stripe.cols.tolist(), stripe.vals.tolist()
        ):
            k = block.col_lo + local_c
            b_cols, b_vals = b_csr.row(k)
            if b_cols.size:
                rows_chunks.append(np.full(b_cols.size, r, dtype=np.int64))
                cols_chunks.append(b_cols)
                vals_chunks.append(b_vals * v)
        if not rows_chunks:
            continue
        partial = COOMatrix.from_triples(
            a.n_rows,
            b.n_cols,
            np.concatenate(rows_chunks),
            np.concatenate(cols_chunks),
            np.concatenate(vals_chunks),
        )
        partial_records += partial.nnz
        partials.append(partial)

    # Step 2: merge the partial products on the linearized (row, col) key,
    # which is exactly the Merge Core's sorted-key accumulation.
    lists = [
        (p.rows * b.n_cols + p.cols, p.vals) for p in partials
    ]
    merged_keys, merged_vals = merge_accumulate(lists)
    product = COOMatrix(
        a.n_rows,
        b.n_cols,
        merged_keys // b.n_cols,
        merged_keys % b.n_cols,
        merged_vals,
    )
    stats = {
        "n_blocks": len(partials),
        "partial_records": partial_records,
        "output_records": product.nnz,
        "compression": partial_records / product.nnz if product.nnz else 1.0,
    }
    return product, stats
