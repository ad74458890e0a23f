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
from repro.telemetry.session import metric_inc, span


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
        products = vals * x_segment[cols]
        # Row-major order makes equal-row products adjacent: compress runs.
        new_run = np.empty(rows.size, dtype=bool)
        new_run[0] = True
        new_run[1:] = rows[1:] != rows[:-1]
        run_ids = np.cumsum(new_run) - 1
        values = np.bincount(run_ids, weights=products)
        return rows[new_run], values

    def merge_accumulate(self, lists: list[SparseVector]) -> SparseVector:
        return merge_accumulate(lists)

    def stripe_spmv_plan(
        self, stripe, x_segment: np.ndarray, workspace=None
    ) -> SparseVector:
        # The run structure (boundaries, output rows) is precomputed in the
        # plan; only the value datapath runs per call.
        if stripe.vals.size == 0:
            return stripe.out_indices, np.empty(0, dtype=np.float64)
        if workspace is not None:
            products = workspace.buffer("step1.products", stripe.vals.size)
            np.take(x_segment, stripe.cols, out=products)
            np.multiply(stripe.vals, products, out=products)
        else:
            products = stripe.vals * x_segment[stripe.cols]
        values = np.bincount(stripe.run_ids, weights=products, minlength=stripe.n_runs)
        return stripe.out_indices, values

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

    def merge_accumulate_batch(self, lists: list, k: int) -> SparseVector:
        pairs = [
            (np.asarray(i, dtype=np.int64), np.asarray(v, dtype=np.float64))
            for i, v in lists
        ]
        pairs = [(i, v) for i, v in pairs if i.size]
        if not pairs:
            return np.empty(0, dtype=np.int64), np.empty((0, k), dtype=np.float64)
        all_idx = np.concatenate([i for i, _ in pairs])
        all_val = np.concatenate([v for _, v in pairs], axis=0)
        # Same stable sort as the scalar merge: the permutation depends only
        # on keys, so it is shared by every column.
        metric_inc(
            "spmv_step2_argsort_total",
            labels={"site": "merge_batch"},
            help="Stable argsorts on the step-2 numeric path",
        )
        order = np.argsort(all_idx, kind="stable")
        all_idx = all_idx[order]
        all_val = all_val[order]
        new_run = np.empty(all_idx.size, dtype=bool)
        new_run[0] = True
        new_run[1:] = all_idx[1:] != all_idx[:-1]
        from repro.core.segsum import build_run_layout, segment_sum_batch

        run_starts = np.append(np.flatnonzero(new_run), all_idx.size)
        summed = segment_sum_batch(all_val, build_run_layout(run_starts))
        return all_idx[new_run], summed

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
    # Fused step-2 kernels: with the merge permutation, run ids and
    # injection positions precomputed (:class:`repro.core.plan.
    # Step2Symbolic`), the per-iteration numeric path collapses to
    # gather + bincount + scatter -- no concatenate-and-argsort, no
    # per-class index construction.  bincount's sequential stream-order
    # addition over the *same* permuted stream keeps outputs
    # bit-identical to the unfused kernels and the oracle.
    # ------------------------------------------------------------------

    def merge_accumulate_plan(
        self, symbolic, lists: list, workspace=None
    ) -> np.ndarray:
        if symbolic.total_records == 0:
            return np.zeros(symbolic.n_merged, dtype=np.float64)
        values = [np.asarray(v, dtype=np.float64) for _, v in lists]
        if workspace is not None:
            concat = workspace.buffer("merge.concat", symbolic.total_records)
            np.concatenate(values, out=concat)
            ordered = workspace.buffer("merge.ordered", symbolic.total_records)
            np.take(concat, symbolic.order, out=ordered)
        else:
            ordered = np.concatenate(values)[symbolic.order]
        return np.bincount(
            symbolic.run_ids, weights=ordered, minlength=symbolic.n_merged
        )

    def merge_accumulate_plan_batch(
        self, symbolic, lists: list, k: int, workspace=None
    ) -> np.ndarray:
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

    def inject_classes_plan(self, symbolic, merged_vals, workspace=None) -> list:
        streams = []
        for radix in range(symbolic.p):
            with span(f"inject.class[{radix}]"):
                dense = np.zeros(symbolic.class_keys[radix].size, dtype=np.float64)
                dense[symbolic.class_positions[radix]] = merged_vals[
                    symbolic.class_sel[radix]
                ]
            streams.append(dense)
        return streams

    # ------------------------------------------------------------------
    # SpGEMM kernels: the partial-product expansion is one batched
    # gather-multiply over the plan's precomputed indices, and the merge
    # is one bincount over the products gathered into merge order by the
    # plan's permutation -- no argsort runs per call.  Both replay the
    # scalar oracle's stream-order addition exactly.
    # ------------------------------------------------------------------

    def spgemm_products(self, splan, b_vals, workspace=None) -> np.ndarray:
        if splan.total_records == 0:
            return np.empty(0, dtype=np.float64)
        if workspace is not None:
            products = workspace.buffer("spgemm.products", splan.total_records)
            np.take(b_vals, splan.gather_b, out=products)
            np.multiply(products, splan.a_scale, out=products)
        else:
            products = b_vals[splan.gather_b] * splan.a_scale
        return products

    def spgemm_merge(self, splan, products, workspace=None) -> np.ndarray:
        if splan.total_records == 0:
            return np.zeros(splan.n_merged, dtype=np.float64)
        products = np.asarray(products, dtype=np.float64)
        if workspace is not None:
            ordered = workspace.buffer("spgemm.ordered", splan.total_records)
            np.take(products, splan.order, out=ordered)
        else:
            ordered = products[splan.order]
        return np.bincount(splan.run_ids, weights=ordered, minlength=splan.n_merged)

    def vldi_stream_bits(self, deltas: np.ndarray, block_bits: int) -> int:
        return total_encoded_bits(deltas, block_bits)
