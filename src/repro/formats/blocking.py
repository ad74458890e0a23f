"""Matrix partitioning schemes.

Two partitionings appear in the paper:

* **1-D column blocking** (section 2): matrix ``A`` is cut into vertical
  stripes ``A_k`` whose width equals the source-vector segment that fits in
  on-chip scratchpad.  This is the Two-Step decomposition; each stripe
  produces one intermediate sparse vector.
* **2-D grid blocking** (section 4.1): additionally cuts rows so that each
  merge core merges only the lists belonging to one horizontal partition.
  The paper shows this "parallelization by partitioning" is unscalable
  because prefetch-buffer memory grows linearly with the number of
  partitions; it is implemented here as the ablation baseline for PRaP.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.formats.coo import COOMatrix


@dataclass(frozen=True)
class ColumnBlock:
    """One vertical stripe of a 1-D column-blocked matrix.

    Attributes:
        index: Stripe number ``k`` (0-based).
        col_lo: First global column covered by the stripe (inclusive).
        col_hi: One past the last global column (exclusive).
        matrix: The stripe's nonzeros in RM-COO with *local* column indices
            in ``[0, col_hi - col_lo)``.
    """

    index: int
    col_lo: int
    col_hi: int
    matrix: COOMatrix

    @property
    def width(self) -> int:
        """Number of columns (= length of the matching vector segment)."""
        return self.col_hi - self.col_lo

    @property
    def nnz(self) -> int:
        """Nonzeros in the stripe."""
        return self.matrix.nnz


@dataclass(frozen=True)
class GridBlock:
    """One tile of a 2-D blocked matrix (section 4.1 ablation).

    Attributes:
        row_part: Horizontal partition index.
        col_part: Vertical stripe index.
        row_lo: First global row (inclusive).
        row_hi: One past the last global row (exclusive).
        col_lo: First global column (inclusive).
        col_hi: One past the last global column (exclusive).
        matrix: Tile nonzeros in RM-COO with local row and column indices.
    """

    row_part: int
    col_part: int
    row_lo: int
    row_hi: int
    col_lo: int
    col_hi: int
    matrix: COOMatrix

    @property
    def nnz(self) -> int:
        """Nonzeros in the tile."""
        return self.matrix.nnz


def column_blocks(matrix: COOMatrix, segment_width: int) -> list:
    """Partition ``matrix`` into vertical stripes of ``segment_width`` columns.

    The final stripe may be narrower.  Stripe column indices are local so
    step 1 can address the scratchpad-resident vector segment directly.

    One stripe spanning every column is ``matrix`` itself (its local
    columns are the global ones), so its arrays are shared, not copied.
    Several stripes are split in one pass: a stable argsort of each
    nonzero's stripe id keeps every stripe's records in row-major order,
    and each stripe is a slice of the sorted arrays -- the same stripes
    :meth:`~repro.formats.coo.COOMatrix.select_columns` cuts one at a
    time.  The stripe id takes the narrowest unsigned dtype, which NumPy
    radix-sorts up to 16 bits.

    Args:
        matrix: The full matrix in RM-COO.
        segment_width: Columns per stripe; in the accelerator this is
            ``scratchpad_vector_bytes // value_bytes``.

    Returns:
        List of :class:`ColumnBlock`, in stripe order; empty when the
        matrix has no columns.
    """
    if segment_width <= 0:
        raise ValueError("segment_width must be positive")
    n_cols = matrix.n_cols
    if n_cols == 0:
        return []
    if segment_width >= n_cols:
        return [ColumnBlock(0, 0, n_cols, matrix)]
    n_blocks = -(-n_cols // segment_width)
    stripe_ids, local = np.divmod(matrix.cols, segment_width)
    stripe_ids = stripe_ids.astype(np.min_scalar_type(n_blocks - 1))
    order = np.argsort(stripe_ids, kind="stable")
    ends = np.cumsum(np.bincount(stripe_ids, minlength=n_blocks)).tolist()
    rows, cols, vals = matrix.rows[order], local[order], matrix.vals[order]
    blocks = []
    start = 0
    for k, end in enumerate(ends):
        lo = k * segment_width
        hi = min(lo + segment_width, n_cols)
        stripe = COOMatrix(
            matrix.n_rows, hi - lo, rows[start:end], cols[start:end], vals[start:end]
        )
        blocks.append(ColumnBlock(k, lo, hi, stripe))
        start = end
    return blocks


def grid_blocks(matrix: COOMatrix, row_parts: int, segment_width: int) -> list:
    """Partition ``matrix`` into a 2-D grid (section 4.1).

    Rows are split into ``row_parts`` near-equal horizontal partitions and
    columns into stripes of ``segment_width``.  Each tile carries local row
    indices so a per-partition merge core emits a contiguous segment of the
    result vector.

    Args:
        matrix: The full matrix in RM-COO.
        row_parts: Number of horizontal partitions ``m`` (one merge core each).
        segment_width: Columns per vertical stripe.

    Returns:
        List of :class:`GridBlock` in ``(row_part, col_part)`` order.
    """
    if row_parts <= 0:
        raise ValueError("row_parts must be positive")
    if segment_width <= 0:
        raise ValueError("segment_width must be positive")
    row_step = -(-matrix.n_rows // row_parts)  # ceil division
    tiles = []
    for rp in range(row_parts):
        row_lo = rp * row_step
        row_hi = min(row_lo + row_step, matrix.n_rows)
        if row_lo >= row_hi:
            break
        mask = (matrix.rows >= row_lo) & (matrix.rows < row_hi)
        band = COOMatrix(
            row_hi - row_lo,
            matrix.n_cols,
            matrix.rows[mask] - row_lo,
            matrix.cols[mask],
            matrix.vals[mask],
        )
        for cp, col_lo in enumerate(range(0, matrix.n_cols, segment_width)):
            col_hi = min(col_lo + segment_width, matrix.n_cols)
            tiles.append(
                GridBlock(
                    rp, cp, row_lo, row_hi, col_lo, col_hi, band.select_columns(col_lo, col_hi)
                )
            )
    return tiles
