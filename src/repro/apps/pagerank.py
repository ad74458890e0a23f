"""PageRank via iterative Two-Step SpMV (the paper's ITS workload).

PageRank's power iteration is ``r' = d * M r + (1 - d)/N`` with ``M`` the
column-stochastic transition matrix; the SpMV result of one iteration is
the source of the next -- exactly the pattern ITS (section 5.2) overlaps.

Every iteration runs on the same matrix, so iterations 2..N replay the
engine's cached plan.  At the default geometry (no ``segment_width``)
the plan is one stripe and step 1 alone is the product, with no merge;
with several stripes, step 2 replays the plan-cached merge permutation
and scatter map, a pure gather/bincount/scatter datapath with no
per-iteration argsort.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.config import TwoStepConfig
from repro.core.its import ITSEngine
from repro.core.twostep import TwoStepEngine
from repro.formats.coo import COOMatrix


def stochastic_matrix(adjacency: COOMatrix) -> COOMatrix:
    """Column-stochastic transition matrix ``M = A^T D^-1``.

    Edge ``u -> v`` becomes entry ``M[v, u] = 1 / outdeg(u)``; dangling
    nodes (zero out-degree) keep an all-zero column and are handled by the
    damping term.
    """
    if adjacency.n_rows != adjacency.n_cols:
        raise ValueError("adjacency must be square")
    out_degree = adjacency.row_degrees().astype(np.float64)
    inv = np.zeros_like(out_degree)
    nonzero = out_degree > 0
    inv[nonzero] = 1.0 / out_degree[nonzero]
    return COOMatrix.from_triples(
        adjacency.n_cols,
        adjacency.n_rows,
        adjacency.cols,
        adjacency.rows,
        inv[adjacency.rows],
        sum_duplicates=True,
    )


@dataclass
class PageRankResult:
    """Converged ranks plus run statistics.

    ``telemetry_reports`` holds one
    :class:`~repro.telemetry.TelemetryReport` per iteration (from the
    underlying engine).
    """

    ranks: np.ndarray
    iterations: int
    converged: bool
    residuals: list = field(default_factory=list)
    its_report: object = None
    telemetry_reports: list = field(default_factory=list)

    def telemetry(self):
        """All iterations' telemetry merged (see ``ITSRunReport.telemetry``)."""
        from repro.telemetry import combine_reports

        return combine_reports(self.telemetry_reports)


def pagerank_reference(
    adjacency: COOMatrix,
    damping: float = 0.85,
    tol: float = 1e-8,
    max_iterations: int = 100,
) -> PageRankResult:
    """Dense-numpy PageRank used as the correctness oracle."""
    transition = stochastic_matrix(adjacency)
    n = adjacency.n_rows
    ranks = np.full(n, 1.0 / n)
    residuals = []
    for iteration in range(1, max_iterations + 1):
        new_ranks = damping * transition.spmv(ranks) + (1.0 - damping) / n
        residual = float(np.abs(new_ranks - ranks).sum())
        residuals.append(residual)
        ranks = new_ranks
        if residual < tol:
            return PageRankResult(ranks, iteration, True, residuals)
    return PageRankResult(ranks, max_iterations, False, residuals)


def pagerank(
    adjacency: COOMatrix,
    config: TwoStepConfig,
    damping: float = 0.85,
    tol: float = 1e-8,
    max_iterations: int = 100,
) -> PageRankResult:
    """PageRank through the ITS-overlapped Two-Step engine.

    Every iteration multiplies by the *same* transition matrix, so the
    engine's execution-plan cache makes iterations 2..N skip all
    matrix-side preparation (blocking, run structure, VLDI sizing).

    Args:
        adjacency: Directed graph adjacency (row = source).
        config: Two-Step configuration (segment width should be the ITS
            half-scratchpad width); it also selects the execution backend.
        damping: PageRank damping factor d.
        tol: L1 convergence threshold.
        max_iterations: Iteration cap.

    Returns:
        :class:`PageRankResult` whose ``its_report`` carries the ITS
        traffic/cycle accounting.
    """
    if not 0.0 < damping < 1.0:
        raise ValueError("damping must be in (0, 1)")
    transition = stochastic_matrix(adjacency)
    n = adjacency.n_rows
    engine = ITSEngine(TwoStepEngine(config))
    residuals = []

    def damp(vector: np.ndarray) -> np.ndarray:
        return damping * vector + (1.0 - damping) / n

    def converged(previous: np.ndarray, new: np.ndarray) -> bool:
        residual = float(np.abs(new - previous).sum())
        residuals.append(residual)
        return residual < tol

    ranks, report = engine.run_iterations(
        transition,
        np.full(n, 1.0 / n),
        max_iterations,
        transform=damp,
        stop_condition=converged,
    )
    return PageRankResult(
        ranks,
        report.iterations,
        residuals[-1] < tol,
        residuals,
        report,
        telemetry_reports=list(report.telemetry_reports),
    )
