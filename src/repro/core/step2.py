"""Step 2 of Two-Step SpMV: PRaP multi-way merge into the dense result.

All intermediate vectors stream back from DRAM through the radix pre-sorter
into the shared prefetch buffer; ``p = 2**q`` merge cores accumulate their
residue classes with missing-key injection, and the store queue emits the
dense result sequentially (paper sections 3.2 and 4.2).

The engine calls the planned merge drivers through this module
(``step2.prap_merge_dense_plan[_batch]``), so they are looked up here at
call time; the plan-free model is :func:`repro.merge.prap.prap_merge_dense`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.merge.prap import prap_merge_dense_plan, prap_merge_dense_plan_batch

__all__ = [
    "Step2Stats",
    "merge_stats",
    "prap_merge_dense_plan",
    "prap_merge_dense_plan_batch",
]


@dataclass
class Step2Stats:
    """Instrumentation of the merge phase."""

    input_records: int = 0
    output_records: int = 0
    injected_records: int = 0
    cycles: float = 0.0
    n_lists: int = 0


def merge_stats(index_lists: list, n_out: int, n_cores: int) -> Step2Stats:
    """Statistics of merging sorted sparse vectors into a dense result.

    Every input record is read once and every one of the ``n_out``
    output positions is written once; keys no list holds are injected
    as zero records.  Missing-key injection equalizes every core's
    output length to ``N / p`` records, so the merge finishes in
    ``max(N, R_in) / p`` cycles regardless of radix imbalance (section
    4.2.2) -- inputs can exceed outputs when many stripes contribute to
    the same row.

    Args:
        index_lists: Index arrays of the intermediate vectors, one per
            stripe.
        n_out: Result dimension ``N``.
        n_cores: PRaP merge cores ``p``.

    Returns:
        A fresh :class:`Step2Stats`.
    """
    total_in = sum(int(indices.size) for indices in index_lists)
    distinct = np.zeros(n_out, dtype=bool)
    for indices in index_lists:
        distinct[indices] = True
    return Step2Stats(
        input_records=total_in,
        output_records=n_out,
        injected_records=n_out - int(np.count_nonzero(distinct)),
        cycles=max(n_out, total_in) / n_cores,
        n_lists=len(index_lists),
    )
