"""ITS -- Iteration-overlapped Two-Step (paper section 5.2).

Iterative SpMV applications feed the result of iteration ``i`` back as the
source of iteration ``i + 1``.  ITS overlaps step 2 of iteration ``i``
with step 1 of iteration ``i + 1``: as soon as the merge network has
produced one *segment* of ``y_i = x_{i+1}`` it is parked in a second
on-chip vector buffer and step 1 of the next iteration starts on it, while
step 2 keeps filling the following segment.

Effects modelled (and tested):

* the DRAM round trip of ``y_i = x_{i+1}`` disappears for interior
  iterations (first x-read and last y-write remain);
* per-iteration time drops from ``t1 + t2`` to ``max(t1, t2)`` in steady
  state because both fabrics stay busy;
* the scratchpad must hold two segments, halving the maximum dimension.

The wrapped :class:`~repro.core.twostep.TwoStepEngine` caches each
matrix's execution plan.  With several stripes its step 2 is a
symbolic/numeric split, so interior iterations reuse the cached merge
permutation and scatter map and perform no per-iteration argsort -- the
software counterpart of the structural reuse ITS assumes in hardware.
A one-stripe plan (no ``segment_width``) does not merge at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.twostep import TwoStepEngine
from repro.formats.coo import COOMatrix
from repro.memory.traffic import TrafficLedger


@dataclass
class ITSRunReport:
    """Aggregate of an ITS iterative run.

    ``telemetry_reports`` carries one
    :class:`~repro.telemetry.TelemetryReport` per executed iteration, in
    iteration order (None entries when telemetry is disabled);
    :meth:`telemetry` rolls them up.
    """

    iterations: int
    per_iteration: list = field(default_factory=list)
    traffic: TrafficLedger = field(default_factory=TrafficLedger)
    overlapped_cycles: float = 0.0
    sequential_cycles: float = 0.0
    telemetry_reports: list = field(default_factory=list)

    @property
    def cycle_speedup(self) -> float:
        """Sequential (plain TS) cycles over overlapped (ITS) cycles."""
        return self.sequential_cycles / self.overlapped_cycles if self.overlapped_cycles else 1.0

    def telemetry(self):
        """All iterations' telemetry merged into one roll-up report.

        Returns:
            A :class:`~repro.telemetry.TelemetryReport` whose spans
            concatenate every iteration's trace (one ``spmv.run`` root
            per iteration) and whose counters sum across iterations.
            Empty when telemetry was disabled throughout.
        """
        from repro.telemetry import combine_reports

        return combine_reports(self.telemetry_reports)


class ITSEngine:
    """Iteration-overlapped Two-Step executor.

    The functional result is identical to running the plain engine
    repeatedly; the instrumentation applies the overlap accounting.
    """

    def __init__(self, engine: TwoStepEngine, max_dimension: int = None):
        """
        Args:
            engine: The Two-Step engine every iteration runs on; its
                plan cache is shared, so iterations (and later runs on
                the same engine) reuse one plan per matrix.  Note ITS
                requires buffering two vector segments, so a scratchpad
                that holds ``segment_width`` elements under plain TS only
                supports ``segment_width // 2`` here -- configure the
                engine with the halved width.
            max_dimension: Optional capacity check (reject matrices whose
                dimension exceeds the ITS maximum).

        Raises:
            TypeError: ``engine`` is not a :class:`TwoStepEngine`.
        """
        if not isinstance(engine, TwoStepEngine):
            raise TypeError(
                f"ITSEngine takes a TwoStepEngine, got {type(engine).__name__}"
            )
        self.config = engine.config
        self.max_dimension = max_dimension
        self._engine = engine

    def run_iterations(
        self,
        matrix: COOMatrix,
        x0: np.ndarray,
        n_iterations: int,
        transform=None,
        stop_condition=None,
    ) -> tuple:
        """Run ``x_{i+1} = transform(A @ x_i)`` for up to ``n_iterations``.

        Args:
            matrix: Square sparse matrix.
            x0: Initial vector.
            n_iterations: Maximum iterations to run (>= 1).
            transform: Optional element-wise post-step applied on-chip
                between iterations (e.g. PageRank damping); must be a
                callable ``vector -> vector``.
            stop_condition: Optional ``(previous, new) -> bool`` callable
                checked after every iteration; True stops the run early
                (convergence test).

        Returns:
            ``(x_final, ITSRunReport)``.
        """
        if matrix.n_rows != matrix.n_cols:
            raise ValueError("iterative SpMV requires a square matrix")
        if self.max_dimension is not None and matrix.n_rows > self.max_dimension:
            raise ValueError(
                f"ITS supports at most {self.max_dimension} nodes "
                f"(two segments resident), got {matrix.n_rows}"
            )
        if n_iterations < 1:
            raise ValueError("n_iterations must be >= 1")

        report = ITSRunReport(iterations=0)
        x = np.asarray(x0, dtype=np.float64)
        for i in range(n_iterations):
            previous = x
            result = self._engine.run(matrix, x)
            x, step_report = result.y, result.report
            report.telemetry_reports.append(result.telemetry)
            if transform is not None:
                x = transform(x)
            report.iterations += 1
            ledger = step_report.traffic
            # Interior transitions keep y_i = x_{i+1} on chip: drop the
            # y-write and the next iteration's x-read; the ledger keeps the
            # first x-read, and the final y-write is re-added after the loop.
            adjusted = TrafficLedger(
                matrix_bytes=ledger.matrix_bytes,
                source_vector_bytes=ledger.source_vector_bytes if i == 0 else 0.0,
                result_vector_bytes=0.0,
                intermediate_write_bytes=ledger.intermediate_write_bytes,
                intermediate_read_bytes=ledger.intermediate_read_bytes,
                notes=dict(ledger.notes),
            )
            report.per_iteration.append(step_report)
            report.traffic = report.traffic.add(adjusted)
            report.sequential_cycles += step_report.step1.cycles + step_report.step2.cycles
            report.overlapped_cycles += max(step_report.step1.cycles, step_report.step2.cycles)
            if stop_condition is not None and stop_condition(previous, x):
                break
        # The last result still streams out to DRAM once.
        report.traffic.result_vector_bytes += report.per_iteration[-1].traffic.result_vector_bytes
        # The first iteration has no preceding step 2 to overlap with.
        first = report.per_iteration[0]
        report.overlapped_cycles += min(first.step1.cycles, first.step2.cycles)
        return x, report


def plain_iteration_traffic(reports: list) -> TrafficLedger:
    """Summed traffic of the same run *without* ITS (for the comparison)."""
    total = TrafficLedger()
    for report in reports:
        total = total.add(report.traffic)
    return total
