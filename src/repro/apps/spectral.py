"""Power iteration for the dominant eigenpair -- another iterative SpMV
client (spectral radius / centrality computations on graphs)."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.config import TwoStepConfig
from repro.core.its import ITSEngine
from repro.core.twostep import TwoStepEngine
from repro.formats.coo import COOMatrix


@dataclass
class PowerIterationResult:
    """Dominant eigenvalue estimate plus convergence statistics."""

    eigenvalue: float
    eigenvector: np.ndarray
    iterations: int
    converged: bool
    estimates: list = field(default_factory=list)
    its_report: object = None


def power_iteration(
    matrix: COOMatrix,
    config: TwoStepConfig = None,
    tol: float = 1e-10,
    max_iterations: int = 1000,
    seed: int = 0,
) -> PowerIterationResult:
    """Estimate the dominant eigenvalue/eigenvector by power iteration.

    Args:
        matrix: Square matrix.
        config: When given, SpMV runs through the ITS-overlapped engine.
        tol: Convergence threshold on successive eigenvalue estimates.
        max_iterations: Iteration cap.
        seed: Seed for the random start vector.

    Returns:
        :class:`PowerIterationResult`.
    """
    if matrix.n_rows != matrix.n_cols:
        raise ValueError("power iteration requires a square matrix")
    rng = np.random.default_rng(seed)
    v0 = rng.uniform(0.5, 1.0, size=matrix.n_rows)
    v0 /= np.linalg.norm(v0)
    estimates = []

    def normalize(w: np.ndarray) -> np.ndarray:
        norm = float(np.linalg.norm(w))
        estimates.append(norm)
        return w / norm if norm else w

    def converged(previous: np.ndarray, new: np.ndarray) -> bool:
        return len(estimates) >= 2 and abs(estimates[-1] - estimates[-2]) < tol

    if config is None:
        v = v0
        for iteration in range(1, max_iterations + 1):
            v = normalize(matrix.spmv(v))
            if len(estimates) >= 2 and abs(estimates[-1] - estimates[-2]) < tol:
                return PowerIterationResult(estimates[-1], v, iteration, True, estimates)
        return PowerIterationResult(
            estimates[-1] if estimates else 0.0, v, max_iterations, False, estimates
        )

    engine = ITSEngine(TwoStepEngine(config))
    v, report = engine.run_iterations(
        matrix, v0, max_iterations, transform=normalize, stop_condition=converged
    )
    done = len(estimates) >= 2 and abs(estimates[-1] - estimates[-2]) < tol
    return PowerIterationResult(
        estimates[-1] if estimates else 0.0, v, report.iterations, done, estimates, report
    )
