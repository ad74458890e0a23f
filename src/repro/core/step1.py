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

from repro.backends import resolve_backend
from repro.core.config import TwoStepConfig
from repro.core.segsum import run_boundaries
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


#: Scratchpad banks of the step-1 cycle model.
SCRATCHPAD_BANKS = 32

#: Extra cycles per record when a high-degree row's accumulation is
#: forced through the general pipeline's single accumulator (FP adder
#: read-modify-write hazard); the tuned HDN accumulator hides it.
HDN_HAZARD_CYCLES = 3.0

#: Adder-chain depth: same-row runs longer than this stall the general
#: accumulator.
ADDER_CHAIN_DEPTH = 8


def account_stripe(
    stats: Step1Stats,
    rows: np.ndarray,
    run_starts: np.ndarray,
    pipelines: int,
    detector: HDNDetector | None = None,
) -> None:
    """Add one stripe's step-1 statistics to ``stats``.

    The stripe's nonzeros are gathered and multiplied once each, and its
    accumulated output records (one per row run) are counted overall
    and per stripe.  Cycles: ``P`` records per cycle across the parallel
    pipelines, inflated by the expected scratchpad bank-conflict factor.
    With an HDN detector, records are dispatched between the HDN and
    general pipelines and flow at full rate; without one, the records of
    same-row runs longer than the adder chain add the accumulator hazard.

    Args:
        stats: Accumulator for one step-1 pass.
        rows: The stripe's row indices, in row-major order.
        run_starts: The row runs' offsets, length ``n_runs + 1``
            (:func:`~repro.core.segsum.run_boundaries`).
        pipelines: ``P``, the parallel multiplier/adder-chain sets.
        detector: Optional HDN detector for pipeline dispatch.
    """
    n_runs = run_starts.size - 1
    stats.gathers += rows.size
    stats.multiplies += rows.size
    stats.output_records += n_runs
    stats.per_stripe_nnz.append(n_runs)
    if rows.size == 0:
        return
    cycles = rows.size / pipelines * expected_conflict_factor(
        pipelines, SCRATCHPAD_BANKS
    )
    if detector is not None:
        is_hdn = detector.dispatch(rows)
        n_hdn = int(np.count_nonzero(is_hdn))
        stats.hdn_records += n_hdn
        stats.general_records += rows.size - n_hdn
        true_hdn = np.isin(rows, detector.hdns)
        stats.hdn_false_positive_records += int(np.count_nonzero(is_hdn & ~true_hdn))
    else:
        stats.general_records += rows.size
        run_lengths = np.diff(run_starts)
        long_runs = run_lengths[run_lengths > ADDER_CHAIN_DEPTH]
        cycles += float(long_runs.sum()) * HDN_HAZARD_CYCLES / pipelines
    stats.cycles += cycles


class Step1Engine:
    """Plan-free step-1 executor: one stripe at a time, instrumented.

    The engine's own step 1 runs from a cached plan through the backend's
    ``map_stripe_plans`` hooks; this class serves callers that stream
    column blocks without a plan (experiments, autotuning).
    """

    def __init__(self, config: TwoStepConfig):
        self.config = config
        self.backend = resolve_backend(config.backend)

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
            account_stripe(
                stats,
                stripe.rows,
                run_boundaries(stripe.rows)[2],
                self.config.step1_pipelines,
                detector,
            )
        return IntermediateVector(block.index, indices, values)
