"""Sparse matrix storage formats and partitioning schemes.

The Two-Step algorithm (paper section 2) requires matrix column blocks
("stripes") stored in a *row-major* sparse format so that step 1 can stream
nonzeros in increasing row order.  Two formats are supported, mirroring the
paper's section 3.1:

* :class:`COOMatrix` -- Row-Major Coordinate (RM-COO), ``O(nnz)`` space,
  preferred for *hypersparse* stripes (``nnz < n_rows``).
* :class:`CSRMatrix` -- Compressed Sparse Row, ``O(nnz + n_rows)`` space,
  preferred when rows are mostly populated.

:class:`CSCMatrix` is provided for column-oriented construction and for the
baseline (latency-bound) SpMV models.

Partitioning lives in :mod:`repro.formats.blocking`:

* :func:`column_blocks` -- the paper's 1-D vertical striping for Two-Step.
* :func:`grid_blocks` -- 2-D blocking used by the "parallelization by
  partitioning" scheme of section 4.1 (the unscalable alternative to PRaP).

Format selection for hypersparse stripes follows
:func:`repro.formats.hypersparse.choose_stripe_format`.
"""

from repro.formats.coo import COOMatrix
from repro.formats.csr import CSRMatrix
from repro.formats.csc import CSCMatrix
from repro.formats.convert import coo_to_csr, csr_to_coo, coo_to_csc, csc_to_coo
from repro.formats.blocking import ColumnBlock, GridBlock, column_blocks, grid_blocks
from repro.formats.hypersparse import StripeFormat, choose_stripe_format, stripe_metadata_bits
from repro.formats.sell import SellMatrix, coo_to_sell
from repro.formats.io import (
    read_matrix_market,
    write_matrix_market,
    read_binary,
    write_binary,
)

__all__ = [
    "COOMatrix",
    "CSRMatrix",
    "CSCMatrix",
    "coo_to_csr",
    "csr_to_coo",
    "coo_to_csc",
    "csc_to_coo",
    "ColumnBlock",
    "GridBlock",
    "column_blocks",
    "grid_blocks",
    "StripeFormat",
    "choose_stripe_format",
    "stripe_metadata_bits",
    "read_matrix_market",
    "write_matrix_market",
    "read_binary",
    "write_binary",
    "SellMatrix",
    "coo_to_sell",
]
