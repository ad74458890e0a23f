"""Conjugate Gradient solver -- the scientific-computing SpMV client.

CG solves ``A z = b`` for symmetric positive-definite ``A`` with one SpMV
per iteration plus vector updates, and is the archetypal kernel behind
the "numerous scientific applications" of the paper's abstract.  The
SpMV inside each iteration runs through the Two-Step engine when a
configuration is supplied, with the ITS-style traffic accounting
aggregated over the run.  The engine persists across iterations, so its
step 2 reuses the cached symbolic merge structure and per-thread
workspace: warm iterations perform no argsort and allocate O(1) new
arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.api import ensure_config
from repro.core.config import TwoStepConfig
from repro.core.twostep import TwoStepEngine
from repro.formats.coo import COOMatrix
from repro.memory.traffic import TrafficLedger


@dataclass
class CGResult:
    """Solution and convergence statistics.

    ``telemetry_reports`` holds one
    :class:`~repro.telemetry.TelemetryReport` per engine-backed SpMV
    (empty when CG runs without an engine config).
    """

    solution: np.ndarray
    iterations: int
    converged: bool
    residual_norms: list = field(default_factory=list)
    traffic: TrafficLedger = field(default_factory=TrafficLedger)
    telemetry_reports: list = field(default_factory=list)

    def telemetry(self):
        """All SpMV calls' telemetry merged into one roll-up report."""
        from repro.telemetry import combine_reports

        return combine_reports(self.telemetry_reports)


def spd_system(n: int, avg_degree: float = 4.0, seed: int = 0) -> tuple:
    """Random sparse symmetric positive-definite system ``(A, b)``.

    Built as ``A = S + S^T + (rowsum + 1) I`` from a random sparse ``S``:
    symmetric by construction, strictly diagonally dominant hence SPD.
    """
    from repro.generators.erdos_renyi import erdos_renyi_graph

    base = erdos_renyi_graph(n, avg_degree / 2.0, seed=seed)
    off = base.rows != base.cols
    rows = np.concatenate([base.rows[off], base.cols[off]])
    cols = np.concatenate([base.cols[off], base.rows[off]])
    vals = np.concatenate([base.vals[off], base.vals[off]])
    row_sums = np.zeros(n)
    np.add.at(row_sums, rows, np.abs(vals))
    diag = np.arange(n, dtype=np.int64)
    matrix = COOMatrix.from_triples(
        n,
        n,
        np.concatenate([rows, diag]),
        np.concatenate([cols, diag]),
        np.concatenate([vals, row_sums + 1.0]),
    )
    rng = np.random.default_rng(seed + 1)
    return matrix, rng.uniform(-1.0, 1.0, size=n)


def conjugate_gradient(
    matrix: COOMatrix,
    b: np.ndarray,
    config: TwoStepConfig = None,
    tol: float = 1e-10,
    max_iterations: int = 1000,
) -> CGResult:
    """Solve ``A z = b`` for SPD ``A`` by conjugate gradients.

    One persistent engine serves every iteration, so the execution plan
    for ``matrix`` is built once and the per-iteration cost is the value
    datapath only.

    Args:
        matrix: Symmetric positive-definite system matrix.
        b: Right-hand side.
        config: When given, the per-iteration SpMV runs through the
            Two-Step engine (on the backend it selects) and its
            traffic is accumulated.
        tol: Convergence threshold on ``||r|| / ||b||``.
        max_iterations: Iteration cap.

    Returns:
        :class:`CGResult`.
    """
    if matrix.n_rows != matrix.n_cols:
        raise ValueError("CG requires a square matrix")
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (matrix.n_rows,):
        raise ValueError(f"b must have shape ({matrix.n_rows},)")
    config = ensure_config(config)
    engine = TwoStepEngine(config) if config is not None else None
    traffic = TrafficLedger()
    telemetry_reports = []

    def apply(v: np.ndarray) -> np.ndarray:
        nonlocal traffic
        if engine is None:
            return matrix.spmv(v)
        result = engine.run(matrix, v)
        traffic = traffic.add(result.report.traffic)
        telemetry_reports.append(result.telemetry)
        return result.y

    b_norm = float(np.linalg.norm(b)) or 1.0
    z = np.zeros(matrix.n_rows)
    r = b.copy()
    p = r.copy()
    rr = float(r @ r)
    norms = [float(np.sqrt(rr)) / b_norm]
    if norms[0] < tol:
        return CGResult(z, 0, True, norms, traffic, telemetry_reports)
    for iteration in range(1, max_iterations + 1):
        ap = apply(p)
        denom = float(p @ ap)
        if denom <= 0:
            raise ValueError("matrix is not positive definite along the search direction")
        alpha = rr / denom
        z = z + alpha * p
        r = r - alpha * ap
        rr_next = float(r @ r)
        norms.append(float(np.sqrt(rr_next)) / b_norm)
        if norms[-1] < tol:
            return CGResult(z, iteration, True, norms, traffic, telemetry_reports)
        p = r + (rr_next / rr) * p
        rr = rr_next
    return CGResult(z, max_iterations, False, norms, traffic, telemetry_reports)
