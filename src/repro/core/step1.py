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

The kernels live in :mod:`repro.backends`; this module holds step 1's
structure-only models, which need no ``x``: the statistics
(:func:`account_stripe`) and the index deltas of every ``v_k``
(:func:`sample_intermediate_deltas`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.compression.delta import delta_encode
from repro.core.segsum import run_boundaries
from repro.filters.hdn import HDNDetector
from repro.formats.coo import COOMatrix
from repro.memory.scratchpad import expected_conflict_factor


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


def sample_intermediate_deltas(
    matrix: COOMatrix,
    segment_width: int,
    max_stripes: int | None = 4,
    max_records: int | None = None,
) -> np.ndarray:
    """Delta streams of the intermediate vectors ``v_k``, concatenated.

    Step 1 emits one record per row run of a stripe, in row order, so
    the indices of ``v_k`` -- and the deltas VLDI encodes (section 5.1)
    -- follow from the stripe's structure alone; no value is computed.

    Args:
        matrix: The input.
        segment_width: Stripe width.
        max_stripes: Stripes sampled (the leading ones); None takes all.
        max_records: Total delta-record cap across the sample; stripes
            past the cap are truncated/skipped so tuning stays cheap on
            huge matrices.  None samples the full stripes.

    Returns:
        ``int64`` deltas, stripe after stripe.
    """
    if segment_width <= 0:
        raise ValueError("segment_width must be positive")
    chunks = []
    sampled = 0
    # A stripe is cut out only when it is read, so a capped sample costs
    # what it reads, not a split of the whole matrix.
    for lo in range(0, matrix.n_cols, segment_width)[:max_stripes]:
        if max_records is not None and sampled >= max_records:
            break
        rows = matrix.select_columns(lo, min(lo + segment_width, matrix.n_cols)).rows
        indices = rows[run_boundaries(rows)[0]]
        if max_records is not None:
            indices = indices[: max_records - sampled]
        if indices.size:
            chunks.append(delta_encode(indices))
            sampled += indices.size
    if not chunks:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(chunks)
