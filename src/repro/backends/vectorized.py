"""Whole-array NumPy backend: the fast path.

Each kernel replaces the reference backend's per-record loop with one or
two array operations over the entire stripe/stream -- the software
counterpart of SpArch-style stream condensing and SMASH-style batched
index decode.  Accumulations use ``np.bincount``, whose C loop adds
weights sequentially in stream order, so results are bit-identical to
the record-at-a-time oracle (pairwise-summation reductions would not
be).
"""

from __future__ import annotations

import numpy as np

from repro.backends.base import ExecutionBackend, SparseVector
from repro.compression.vldi import total_encoded_bits
from repro.merge.merge_core import inject_missing_keys
from repro.merge.tournament import merge_accumulate


class VectorizedBackend(ExecutionBackend):
    """NumPy array kernels, bit-compatible with :class:`ReferenceBackend`."""

    name = "vectorized"

    def stripe_spmv(
        self,
        rows: np.ndarray,
        cols: np.ndarray,
        vals: np.ndarray,
        x_segment: np.ndarray,
    ) -> SparseVector:
        if rows.size == 0:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
        # Deferred import: repro.core pulls the backend registry back in
        # at package-init time, so a module-level import would cycle.
        from repro.core.segsum import run_boundaries

        products = vals * x_segment[cols]
        # Row-major order makes equal-row products adjacent: compress runs.
        new_run, run_ids = run_boundaries(rows)[:2]
        values = np.bincount(run_ids, weights=products)
        return rows[new_run], values

    def merge_accumulate(self, lists: list[SparseVector]) -> SparseVector:
        return merge_accumulate(lists)

    def stripe_spmv_plan(self, stripe, x_segment: np.ndarray) -> SparseVector:
        # The run structure (boundaries, output rows) is precomputed in the
        # plan; only the value datapath runs per call.  Gathers let
        # np.take allocate: with out= and the default bounds-checking
        # mode it takes into a temporary and copies that back.
        if stripe.vals.size == 0:
            return stripe.out_indices, np.empty(0, dtype=np.float64)
        products = np.take(x_segment, stripe.cols)
        np.multiply(stripe.vals, products, out=products)
        values = np.bincount(stripe.run_ids, weights=products, minlength=stripe.n_runs)
        return stripe.out_indices, values

    def stripe_spmv_dense(
        self, stripe, x_segment: np.ndarray, n_out: int
    ) -> np.ndarray:
        # Binning by row instead of by run id makes bincount's output the
        # dense result: each row is the same sequential sum from +0.0,
        # and minlength leaves rows without a nonzero at 0.0.  An empty
        # stream is special-cased because bincount then returns int64.
        if stripe.vals.size == 0:
            return np.zeros(n_out, dtype=np.float64)
        products = np.take(x_segment, stripe.cols)
        np.multiply(stripe.vals, products, out=products)
        return np.bincount(stripe.rows, weights=products, minlength=n_out)

    def stripe_spmv_plan_batch(self, stripe, segments: np.ndarray) -> SparseVector:
        k = segments.shape[1]
        if stripe.vals.size == 0 or k == 0:
            return stripe.out_indices, np.zeros((stripe.n_runs, k), dtype=np.float64)
        # One batched gather serves every right-hand side; accumulation
        # uses the order-preserving position-major segment sum, whose
        # left-associated stream-order adds replay bincount exactly (the
        # bit-compatibility contract) while staying k-wide vectorized.
        # Deferred import: repro.core pulls the backend registry back in
        # at package-init time, so a module-level import would cycle.
        from repro.core.segsum import mul_segment_sum_batch

        values = mul_segment_sum_batch(
            segments, stripe.batch_cols, stripe.batch_vals, stripe.run_groups
        )
        return stripe.out_indices, values

    def inject_missing_keys(
        self,
        keys: np.ndarray,
        vals: np.ndarray,
        dense_range: tuple[int, int],
        stride: int = 1,
        offset: int = 0,
    ) -> SparseVector:
        return inject_missing_keys(keys, vals, dense_range, stride, offset)

    def scatter_dense(
        self, indices: np.ndarray, values: np.ndarray, n_out: int
    ) -> np.ndarray:
        out = np.zeros(n_out, dtype=np.float64)
        out[indices] = values
        return out

    # ------------------------------------------------------------------
    # Planned step-2 kernels: with the merge permutation and run ids
    # precomputed (:class:`repro.core.plan.Step2Symbolic`), the
    # per-iteration numeric path collapses to gather + bincount +
    # scatter -- no concatenate-and-argsort.  bincount's sequential
    # stream-order addition over the *same* permuted stream keeps
    # outputs bit-identical to :meth:`merge_accumulate` and the oracle.
    # ------------------------------------------------------------------

    def merge_accumulate_plan(self, symbolic, lists: list) -> np.ndarray:
        if symbolic.total_records == 0:
            return np.zeros(symbolic.n_merged, dtype=np.float64)
        values = [np.asarray(v, dtype=np.float64) for _, v in lists]
        ordered = np.take(np.concatenate(values), symbolic.order)
        return np.bincount(
            symbolic.run_ids, weights=ordered, minlength=symbolic.n_merged
        )

    def merge_accumulate_plan_batch(self, symbolic, lists: list, k: int) -> np.ndarray:
        if k == 0 or symbolic.total_records == 0:
            return np.zeros((symbolic.n_merged, k), dtype=np.float64)
        from repro.core.segsum import segment_sum_batch

        all_val = np.concatenate(
            [np.asarray(v, dtype=np.float64) for _, v in lists], axis=0
        )
        # The symbolic record map is composed with the merge permutation
        # at plan-build time, so the sorted stream is never materialized:
        # the segment sum reads the raw concatenated block and still
        # replays bincount's stream-order addition, k columns at a time.
        return segment_sum_batch(all_val, symbolic.run_groups)

    # ------------------------------------------------------------------
    # SpGEMM kernels: the partial-product expansion is one batched
    # gather-multiply over the plan's precomputed indices, and the merge
    # is one bincount over the products gathered into merge order by the
    # plan's permutation -- no argsort runs per call.  Both replay the
    # scalar oracle's stream-order addition exactly.
    # ------------------------------------------------------------------

    def spgemm_products(self, splan, b_vals) -> np.ndarray:
        if splan.total_records == 0:
            return np.empty(0, dtype=np.float64)
        products = np.take(b_vals, splan.gather_b)
        products *= splan.a_scale
        return products

    def spgemm_merge(self, splan, products) -> np.ndarray:
        if splan.total_records == 0:
            return np.zeros(splan.n_merged, dtype=np.float64)
        ordered = np.take(np.asarray(products, dtype=np.float64), splan.order)
        return np.bincount(splan.run_ids, weights=ordered, minlength=splan.n_merged)

    def vldi_stream_bits(self, deltas: np.ndarray, block_bits: int) -> int:
        return total_encoded_bits(deltas, block_bits)
