"""Input hardening at the :class:`~repro.api.SpMVEngine` boundary.

Poisoned inputs must be rejected *before* they reach the hot path: a NaN
in the source vector silently propagates through every stripe, an
out-of-range index segfault-equivalents the vectorized gather, and an
unsorted RM-COO stream breaks the run-structure contract every kernel
relies on.  Cheap shape/dtype checks always run; the full-scan checks
(finiteness, index range, duplicates, sortedness) are the *strict* tier,
enabled per engine (``strict_validate=True``, ``--strict-validate`` on
the CLI, or the ``REPRO_STRICT_VALIDATE`` environment variable, all
resolved once when the engine is built by :mod:`repro.api`).

All rejections raise the typed hierarchy of :mod:`repro.faults.errors`
(subclasses of :class:`ValueError`, so legacy ``except ValueError``
call sites keep working).
"""

from __future__ import annotations

import numpy as np

from repro.faults.errors import (
    ConfigurationError,
    InvalidMatrixError,
    InvalidVectorError,
)

def validate_vector(
    x, n: int, name: str = "x", strict: bool = False, ndim: int = 1
) -> np.ndarray:
    """Coerce and check one dense operand.

    Args:
        x: Vector (``ndim=1``) or RHS block (``ndim=2``) to harden.
        n: Required leading dimension.
        name: Operand name for error messages.
        strict: Also scan for NaN/Inf.
        ndim: Expected dimensionality.

    Returns:
        The operand as a ``float64`` array.

    Raises:
        InvalidVectorError: Wrong shape/dtype or (strict) non-finite data.
    """
    try:
        arr = np.asarray(x, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise InvalidVectorError(f"{name} is not convertible to float64: {exc}") from exc
    if ndim == 1:
        if arr.shape != (n,):
            raise InvalidVectorError(f"{name} must have shape ({n},)")
    else:
        if arr.ndim != ndim or arr.shape[0] != n:
            raise InvalidVectorError(f"{name} must have shape ({n}, k)")
    if strict and arr.size and not np.all(np.isfinite(arr)):
        bad = int(np.count_nonzero(~np.isfinite(arr)))
        raise InvalidVectorError(f"{name} contains {bad} non-finite (NaN/Inf) element(s)")
    return arr


def normalize_batch_operand(x, n: int, name: str = "X"):
    """Normalize a ``run_many`` operand to its canonical 2-D layout.

    ``run_many`` takes right-hand sides as *columns*: shape ``(n, k)``.
    Two shapes historically slipped through to confusing downstream
    errors (or, for a single-column matrix, silently flipped meaning):

    * a 1-D vector of length ``n`` -- clearly one RHS; normalized to
      ``(n, 1)`` so ``run_many(matrix, x)`` behaves like a batch of one;
    * a transposed block ``(k, n)`` -- rejected with a
      :class:`~repro.faults.errors.ConfigurationError` naming the fix
      instead of a bare shape mismatch.

    A 1-D operand whose length is *not* ``n`` (the ambiguous
    single-column-matrix case: ``n_cols == 1`` and a length-``k``
    vector) is also rejected with an explicit message, since guessing
    between "k right-hand sides" and "one malformed RHS" would be
    silent corruption.

    Args:
        x: Candidate operand (array-like).
        n: Required leading dimension (``n_cols`` for X, ``n_rows``
            for Y).
        name: Operand name for error messages.

    Returns:
        The operand as an ``ndarray`` of shape ``(n, k)``.

    Raises:
        ConfigurationError: 1-D with the wrong length, or a transposed
            2-D block.
    """
    try:
        arr = np.asarray(x)
    except (TypeError, ValueError) as exc:
        raise InvalidVectorError(f"{name} is not convertible to an array: {exc}") from exc
    if arr.ndim == 1:
        if arr.shape[0] != n:
            raise ConfigurationError(
                f"{name} is 1-D with length {arr.shape[0]} but run_many "
                f"expects right-hand sides as columns of shape ({n}, k); "
                f"pass {name} with shape ({n},) for a single RHS or "
                f"({n}, k) for a batch"
            )
        return arr.reshape(n, 1)
    if arr.ndim == 2 and arr.shape[0] != n and arr.shape[1] == n:
        raise ConfigurationError(
            f"{name} has shape {arr.shape} which looks transposed: "
            f"run_many expects right-hand sides as columns, shape "
            f"({n}, k); pass {name}.T"
        )
    return arr


def validate_matrix(matrix, strict: bool = False) -> None:
    """Check a (duck-typed) RM-COO matrix against the engine contract.

    Cheap tier: coherent dimensions and equal-length triple arrays.
    Strict tier: index ranges, row-major sortedness, duplicate
    ``(row, col)`` coordinates and non-finite values -- one vectorized
    pass each, O(nnz).

    Raises:
        InvalidMatrixError: On any violation.
    """
    n_rows = getattr(matrix, "n_rows", None)
    n_cols = getattr(matrix, "n_cols", None)
    if n_rows is None or n_cols is None or n_rows < 0 or n_cols < 0:
        raise InvalidMatrixError("matrix must define non-negative n_rows and n_cols")
    rows = np.asarray(matrix.rows)
    cols = np.asarray(matrix.cols)
    vals = np.asarray(matrix.vals)
    if not (rows.shape == cols.shape == vals.shape) or rows.ndim != 1:
        raise InvalidMatrixError("rows, cols and vals must be 1-D arrays of equal length")
    if not strict or rows.size == 0:
        return
    if rows.min() < 0 or rows.max() >= n_rows:
        raise InvalidMatrixError(
            f"row index out of range [0, {n_rows}) in matrix triples"
        )
    if cols.min() < 0 or cols.max() >= n_cols:
        raise InvalidMatrixError(
            f"column index out of range [0, {n_cols}) in matrix triples"
        )
    if not np.all(np.isfinite(vals)):
        bad = int(np.count_nonzero(~np.isfinite(vals)))
        raise InvalidMatrixError(f"matrix values contain {bad} non-finite element(s)")
    keys = rows.astype(np.int64) * np.int64(n_cols) + cols.astype(np.int64)
    deltas = np.diff(keys)
    if np.any(deltas < 0):
        raise InvalidMatrixError(
            "matrix triples are not sorted row-major (RM-COO contract)"
        )
    if np.any(deltas == 0):
        dupes = int(np.count_nonzero(deltas == 0))
        raise InvalidMatrixError(
            f"matrix has {dupes} duplicate (row, col) coordinate(s); "
            "assemble with COOMatrix.from_triples(sum_duplicates=True)"
        )


def validate_inputs(
    matrix,
    x,
    y=None,
    strict: bool = False,
    batch: bool = False,
) -> tuple:
    """Harden one ``run`` / ``run_many`` call's operands.

    Args:
        matrix: Sparse operand (RM-COO).
        x: Source vector, or source block when ``batch``.
        y: Optional accumuland (vector or block).
        strict: Run the full-scan tier on every operand.
        batch: Operands are 2-D multi-RHS blocks.

    Returns:
        ``(x, y)`` coerced to ``float64`` arrays (``y`` may be None).
        In batch mode 1-D operands of the right length are normalized to
        single-column blocks first (see :func:`normalize_batch_operand`).

    Raises:
        InvalidMatrixError: Matrix contract violation.
        InvalidVectorError: Dense-operand contract violation.
        ConfigurationError: Batch operand 1-D with the wrong length or
            passed transposed.
    """
    validate_matrix(matrix, strict=strict)
    ndim = 2 if batch else 1
    if batch:
        x = normalize_batch_operand(x, matrix.n_cols, name="X")
    x = validate_vector(x, matrix.n_cols, name="X" if batch else "x", strict=strict, ndim=ndim)
    if y is not None:
        name = "Y" if batch else "y"
        if batch:
            y = normalize_batch_operand(y, matrix.n_rows, name="Y")
        y = validate_vector(y, matrix.n_rows, name=name, strict=strict, ndim=ndim)
        if batch and y.shape[1] != x.shape[1]:
            raise InvalidVectorError(
                f"Y must have shape ({matrix.n_rows}, {x.shape[1]})"
            )
    return x, y


__all__ = [
    "normalize_batch_operand",
    "validate_inputs",
    "validate_matrix",
    "validate_vector",
]
