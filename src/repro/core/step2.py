"""Step 2 of Two-Step SpMV: PRaP multi-way merge into the dense result.

All intermediate vectors stream back from DRAM through the radix pre-sorter
into the shared prefetch buffer; ``p = 2**q`` merge cores accumulate their
residue classes with missing-key injection, and the store queue emits the
dense result sequentially (paper sections 3.2 and 4.2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.backends import ExecutionBackend, resolve_backend
from repro.core.config import TwoStepConfig
from repro.merge.prap import (
    prap_merge_dense,
    prap_merge_dense_plan,
    prap_merge_dense_plan_batch,
)


@dataclass
class Step2Stats:
    """Instrumentation of the merge phase."""

    input_records: int = 0
    output_records: int = 0
    injected_records: int = 0
    cycles: float = 0.0
    n_lists: int = 0


class Step2Engine:
    """Functional + instrumented step-2 executor."""

    def __init__(
        self,
        config: TwoStepConfig,
        backend: str | ExecutionBackend | None = None,
    ):
        self.config = config
        self.backend = resolve_backend(backend or config.backend)

    def run(
        self,
        intermediates: list,
        n_out: int,
        y: np.ndarray = None,
        stats: Step2Stats = None,
    ) -> np.ndarray:
        """Merge intermediate vectors into the dense result.

        Args:
            intermediates: Step-1 outputs (:class:`IntermediateVector`).
            n_out: Result dimension N.
            y: Optional dense accumuland (the ``+ y`` of ``y = Ax + y``),
                added element-wise to the merged stream.
            stats: Optional instrumentation accumulator.

        Returns:
            Dense ``float64`` result of length ``n_out``.
        """
        lists = [(iv.indices, iv.values) for iv in intermediates]
        merged = prap_merge_dense(
            lists,
            n_out,
            self.config.q,
            check_interleave=False,
            backend=self.backend,
        )
        if y is not None:
            y = np.asarray(y, dtype=np.float64)
            if y.shape != (n_out,):
                raise ValueError(f"y must have shape ({n_out},)")
            merged = merged + y
        if stats is not None:
            total_in = sum(iv.nnz for iv in intermediates)
            stats.input_records += total_in
            stats.output_records += n_out
            distinct = int(np.count_nonzero(self._distinct_mask(lists, n_out)))
            stats.injected_records += n_out - distinct
            stats.n_lists = max(stats.n_lists, len(lists))
            stats.cycles += self._merge_cycles(total_in, n_out)
        return merged

    def run_lists_plan(
        self,
        symbolic,
        lists: list,
        y: np.ndarray | None = None,
    ) -> np.ndarray:
        """Merge raw ``(indices, values)`` pairs via precomputed structure.

        This is the engine's step-2 path: the plan's symbolic structure
        replaces the per-call merge derivation of :meth:`run`.

        Args:
            symbolic: The plan's :class:`~repro.core.plan.Step2Symbolic`
                (built for this engine's ``p``).
            lists: Sorted sparse vectors in stripe order.
            y: Optional dense accumuland.

        Returns:
            Dense ``float64`` result, bit-identical to
            :func:`~repro.merge.prap.prap_merge_dense` on the same lists.
        """
        merged = prap_merge_dense_plan(symbolic, lists, backend=self.backend)
        if y is not None:
            y = np.asarray(y, dtype=np.float64)
            if y.shape != (symbolic.n_out,):
                raise ValueError(f"y must have shape ({symbolic.n_out},)")
            merged = merged + y
        return merged

    def run_batch_plan(
        self,
        symbolic,
        lists: list,
        k: int,
        Y: np.ndarray | None = None,
    ) -> np.ndarray:
        """Multi-RHS :meth:`run_lists_plan`: one permutation, k columns.

        Args:
            symbolic: The plan's :class:`~repro.core.plan.Step2Symbolic`.
            lists: ``(indices, values)`` pairs with ``(n, k)`` values.
            k: Batch width.
            Y: Optional dense accumuland block, shape ``(n_out, k)``.

        Returns:
            Dense ``float64`` result of shape ``(n_out, k)``; column
            ``j`` is bit-identical to the single-RHS path on the same
            inputs.
        """
        merged = prap_merge_dense_plan_batch(
            symbolic, lists, k, backend=self.backend
        )
        if Y is not None:
            Y = np.asarray(Y, dtype=np.float64)
            if Y.shape != (symbolic.n_out, k):
                raise ValueError(f"Y must have shape ({symbolic.n_out}, {k})")
            merged = merged + Y
        return merged

    @staticmethod
    def _distinct_mask(lists: list, n_out: int) -> np.ndarray:
        mask = np.zeros(n_out, dtype=bool)
        for idx, _ in lists:
            mask[np.asarray(idx, dtype=np.int64)] = True
        return mask

    def _merge_cycles(self, input_records: int, n_out: int) -> float:
        """Cycle estimate: each core outputs one record per cycle.

        Missing-key injection equalizes every core's output length to
        ``N / p`` records, so the merge finishes in ``max(N, R_in) / p``
        cycles regardless of radix imbalance (section 4.2.2) -- inputs can
        exceed outputs when many stripes contribute to the same row.
        """
        p = self.config.n_cores
        return max(n_out, input_records) / p
