"""Jacobi linear solver -- an iterative SpMV client beyond PageRank.

Solves ``A z = b`` for diagonally dominant ``A`` via
``z_{k+1} = D^-1 (b - R z_k)`` where ``R = A - D``.  Each iteration is
one SpMV with ``R``, so the solver exercises the Two-Step/ITS engines the
same way the paper's "numerous scientific applications" do -- including
the planned step 2, which reuses ``R``'s cached symbolic merge structure
across all iterations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.config import TwoStepConfig
from repro.core.its import ITSEngine
from repro.core.twostep import TwoStepEngine
from repro.formats.coo import COOMatrix


@dataclass
class JacobiResult:
    """Solution plus convergence statistics."""

    solution: np.ndarray
    iterations: int
    converged: bool
    residuals: list = field(default_factory=list)
    its_report: object = None


def split_diagonal(matrix: COOMatrix) -> tuple:
    """Split ``A`` into its diagonal (as a vector) and remainder ``R``.

    Raises:
        ValueError: If any diagonal entry is zero (Jacobi undefined).
    """
    if matrix.n_rows != matrix.n_cols:
        raise ValueError("Jacobi requires a square matrix")
    on_diag = matrix.rows == matrix.cols
    diagonal = np.zeros(matrix.n_rows, dtype=np.float64)
    np.add.at(diagonal, matrix.rows[on_diag], matrix.vals[on_diag])
    if np.any(diagonal == 0.0):
        raise ValueError("matrix has zero diagonal entries")
    remainder = COOMatrix(
        matrix.n_rows,
        matrix.n_cols,
        matrix.rows[~on_diag],
        matrix.cols[~on_diag],
        matrix.vals[~on_diag],
    )
    return diagonal, remainder


def jacobi_solve(
    matrix: COOMatrix,
    b: np.ndarray,
    config: TwoStepConfig = None,
    tol: float = 1e-10,
    max_iterations: int = 500,
) -> JacobiResult:
    """Solve ``A z = b`` by Jacobi iteration.

    Args:
        matrix: Square, diagonally dominant system matrix.
        b: Right-hand side.
        config: When given, each ``R z`` product runs through the
            ITS-overlapped Two-Step engine; otherwise the reference kernel.
        tol: Convergence threshold on the infinity norm of the update.
        max_iterations: Iteration cap.

    Returns:
        :class:`JacobiResult`.
    """
    diagonal, remainder = split_diagonal(matrix)
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (matrix.n_rows,):
        raise ValueError(f"b must have shape ({matrix.n_rows},)")
    inv_diag = 1.0 / diagonal
    residuals = []

    if config is None:
        z = np.zeros(matrix.n_rows)
        for iteration in range(1, max_iterations + 1):
            z_next = inv_diag * (b - remainder.spmv(z))
            residual = float(np.abs(z_next - z).max())
            residuals.append(residual)
            z = z_next
            if residual < tol:
                return JacobiResult(z, iteration, True, residuals)
        return JacobiResult(z, max_iterations, False, residuals)

    engine = ITSEngine(TwoStepEngine(config))

    def update(product: np.ndarray) -> np.ndarray:
        return inv_diag * (b - product)

    def converged(previous: np.ndarray, new: np.ndarray) -> bool:
        # previous is the pre-SpMV vector; compare post-transform states.
        residual = float(np.abs(new - previous).max())
        residuals.append(residual)
        return residual < tol

    z, report = engine.run_iterations(
        remainder,
        np.zeros(matrix.n_rows),
        max_iterations,
        transform=update,
        stop_condition=converged,
    )
    return JacobiResult(z, report.iterations, residuals[-1] < tol, residuals, report)


def diagonally_dominant_system(n: int, avg_degree: float = 4.0, seed: int = 0) -> tuple:
    """Generate a random strictly diagonally dominant system ``(A, b)``.

    Off-diagonal structure comes from a random sparse matrix; the diagonal
    is set to row-sum + 1 so Jacobi provably converges.
    """
    from repro.generators.erdos_renyi import erdos_renyi_graph

    base = erdos_renyi_graph(n, avg_degree, seed=seed)
    off = base.rows != base.cols
    rows = base.rows[off]
    cols = base.cols[off]
    vals = base.vals[off]
    row_sums = np.zeros(n)
    np.add.at(row_sums, rows, np.abs(vals))
    diag_rows = np.arange(n, dtype=np.int64)
    matrix = COOMatrix.from_triples(
        n,
        n,
        np.concatenate([rows, diag_rows]),
        np.concatenate([cols, diag_rows]),
        np.concatenate([vals, row_sums + 1.0]),
    )
    rng = np.random.default_rng(seed + 1)
    return matrix, rng.uniform(-1.0, 1.0, size=n)
