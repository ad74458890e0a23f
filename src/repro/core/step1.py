"""Step 1 of Two-Step SpMV: stripe x segment partial products.

For each column block ``A_k`` the engine streams the segment ``x_k`` into
the (banked) scratchpad, then streams the stripe's nonzeros in row-major
order through ``P`` multiplier + adder-chain pipelines (paper Fig. 5).
Because nonzeros arrive sorted by row, equal-row products are consecutive
and the adder chain accumulates them into one record; the output is the
intermediate sparse vector ``v_k``, generated in ascending row order and
streamed straight back to DRAM.

High-degree rows are optionally dispatched to the dedicated HDN pipeline
via the Bloom-filter detector (section 5.3); the cycle model charges an
accumulator-hazard penalty when HDN rows are forced through the general
pipeline, which is the effect the dual-pipeline design removes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.backends import ExecutionBackend, resolve_backend
from repro.core.config import TwoStepConfig
from repro.filters.hdn import HDNDetector
from repro.formats.blocking import ColumnBlock
from repro.memory.scratchpad import expected_conflict_factor


@dataclass
class IntermediateVector:
    """One sorted intermediate sparse vector ``v_k`` (step-1 output).

    Attributes:
        stripe_index: k, the producing column block.
        indices: Strictly increasing row indices of nonzeros.
        values: Accumulated partial products.
    """

    stripe_index: int
    indices: np.ndarray
    values: np.ndarray

    @property
    def nnz(self) -> int:
        """Stored nonzeros."""
        return int(self.indices.size)


@dataclass
class Step1Stats:
    """Instrumentation of one step-1 pass over all stripes."""

    gathers: int = 0
    multiplies: int = 0
    output_records: int = 0
    hdn_records: int = 0
    hdn_false_positive_records: int = 0
    general_records: int = 0
    cycles: float = 0.0
    per_stripe_nnz: list[int] = field(default_factory=list)


class Step1Engine:
    """Functional + instrumented step-1 executor."""

    #: Extra cycles per record when a high-degree row's accumulation is
    #: forced through the general pipeline's single accumulator (FP adder
    #: read-modify-write hazard); the tuned HDN accumulator hides it.
    HDN_HAZARD_CYCLES = 3.0

    def __init__(
        self,
        config: TwoStepConfig,
        n_banks: int = 32,
        backend: str | ExecutionBackend | None = None,
    ):
        self.config = config
        self.n_banks = n_banks
        self.backend = resolve_backend(backend or config.backend)

    def run_stripe(
        self,
        block: ColumnBlock,
        x_segment: np.ndarray,
        detector: HDNDetector = None,
        stats: Step1Stats = None,
    ) -> IntermediateVector:
        """Compute ``v_k = A_k @ x_k`` for one stripe.

        Args:
            block: The column block (local column indices).
            x_segment: The matching source-vector segment.
            detector: Optional HDN detector for pipeline dispatch.
            stats: Optional accumulator for instrumentation.

        Returns:
            The sorted intermediate sparse vector.
        """
        stripe = block.matrix
        if x_segment.shape != (block.width,):
            raise ValueError(
                f"segment has {x_segment.shape[0]} elements, stripe expects {block.width}"
            )
        width = self.config.segment_width
        if width is not None and x_segment.size > width:
            raise ValueError("segment exceeds configured scratchpad width")
        indices, values = self.backend.stripe_spmv(
            stripe.rows, stripe.cols, stripe.vals, x_segment
        )

        if stats is not None:
            stats.gathers += stripe.nnz
            stats.multiplies += stripe.nnz
            stats.output_records += indices.size
            stats.per_stripe_nnz.append(int(indices.size))
            stats.cycles += self._stripe_cycles(stripe.rows, detector, stats)
        return IntermediateVector(block.index, indices, values)

    def run_planned(self, plan, x: np.ndarray) -> list:
        """Step 1 over every stripe of a prebuilt execution plan.

        The run structure (boundaries, output rows) lives in the plan, so
        only the value datapath executes through the backend's
        ``map_stripe_plans`` hook.

        Args:
            plan: The matrix's :class:`~repro.core.plan.ExecutionPlan`.
            x: Dense source vector (length ``n_cols``).

        Returns:
            Per-stripe sorted ``(indices, values)`` pairs, in stripe
            order -- the intermediate vectors ``v_k``.
        """
        segments = [x[sp.col_lo : sp.col_hi] for sp in plan.stripes]
        return self.backend.map_stripe_plans(plan.stripes, segments)

    def run_planned_batch(self, plan, X: np.ndarray) -> list:
        """Multi-RHS step 1: one pass over the plan serves all columns.

        Args:
            plan: The matrix's :class:`~repro.core.plan.ExecutionPlan`.
            X: Dense source block, shape ``(n_cols, k)``.

        Returns:
            Per-stripe ``(indices, values)`` pairs with values of shape
            ``(n_runs, k)``.
        """
        segments = [X[sp.col_lo : sp.col_hi, :] for sp in plan.stripes]
        return self.backend.map_stripe_plans_batch(plan.stripes, segments)

    def _stripe_cycles(
        self, rows: np.ndarray, detector: HDNDetector, stats: Step1Stats
    ) -> float:
        """Cycle estimate for one stripe's record stream.

        Base rate: ``P`` records per cycle across the parallel pipelines,
        inflated by the expected scratchpad bank-conflict factor; HDN rows
        routed through the general pipeline add the accumulator hazard.
        """
        if rows.size == 0:
            return 0.0
        p = self.config.step1_pipelines
        conflict = expected_conflict_factor(p, self.n_banks)
        base = rows.size / p * conflict
        hazard = 0.0
        if detector is not None:
            is_hdn = detector.dispatch(rows)
            n_hdn = int(np.count_nonzero(is_hdn))
            stats.hdn_records += n_hdn
            stats.general_records += rows.size - n_hdn
            true_hdn = np.isin(rows, detector.hdns)
            stats.hdn_false_positive_records += int(np.count_nonzero(is_hdn & ~true_hdn))
            # With the dual pipeline, HDN records flow at full rate: no hazard.
        else:
            stats.general_records += rows.size
            # Without dispatch, long same-row runs stall the general
            # accumulator; charge the hazard for records in runs longer than
            # the adder-chain depth.
            run_lengths = np.diff(np.flatnonzero(np.concatenate(([True], rows[1:] != rows[:-1], [True]))))
            long_runs = run_lengths[run_lengths > 8]
            hazard = float(long_runs.sum()) * self.HDN_HAZARD_CYCLES / p
        return base + hazard
