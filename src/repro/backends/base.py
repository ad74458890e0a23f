"""Execution-backend protocol for the Two-Step hot path.

The functional Two-Step engine is a fixed orchestration (column blocking,
stripe SpMV, DRAM round trip, PRaP merge) over a small set of *kernels*:
stripe accumulation, sorted-list merge with accumulation, missing-key
injection, dense scatter, and VLDI size accounting.  An
:class:`ExecutionBackend` bundles one implementation of each kernel, so
the engine can swap the record-at-a-time oracle for whole-array NumPy
kernels without touching any caller.

Every backend must be *bit-compatible*: for the same inputs, all kernels
accumulate in the same left-to-right stream order, starting every sum
from ``+0.0`` as ``np.bincount`` does, so result vectors are
byte-identical across backends (signed zeros included) and traffic
ledgers agree to the byte.
The differential test suite (``tests/test_backends_equivalence.py``)
enforces this on randomized inputs.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np


#: ``(indices, values)`` sparse-vector pair; indices int64, values float64.
SparseVector = tuple[np.ndarray, np.ndarray]


class ExecutionBackend(ABC):
    """One implementation of the Two-Step hot-path kernels.

    Attributes:
        name: Registry key (``"reference"``, ``"vectorized"``, ...).
    """

    name: str = "abstract"

    @property
    def kernel_tier(self) -> str:
        """Which kernel implementation executes: the registry name.

        ``perfbench`` reads it to label each run's kernels.
        """
        return self.name

    @abstractmethod
    def stripe_spmv(
        self,
        rows: np.ndarray,
        cols: np.ndarray,
        vals: np.ndarray,
        x_segment: np.ndarray,
    ) -> SparseVector:
        """Step-1 kernel: ``v_k = A_k @ x_k`` for one row-major stripe.

        Nonzeros arrive sorted by row, so equal-row products are adjacent;
        the kernel compresses each run into one accumulated record (the
        adder chain of paper Fig. 5).  Accumulation must be sequential in
        stream order, starting from ``+0.0``.

        Args:
            rows: Stripe row indices (non-decreasing within runs).
            cols: Stripe-local column indices.
            vals: Nonzero values.
            x_segment: Scratchpad-resident source-vector segment.

        Returns:
            ``(indices, values)`` of the intermediate sparse vector.
        """

    @abstractmethod
    def merge_accumulate(self, lists: list[SparseVector]) -> SparseVector:
        """Step-2 kernel: K-way merge of sorted sparse vectors.

        Records sharing a key are accumulated in list order (the root
        accumulator of the hardware merge core).

        Args:
            lists: ``(indices, values)`` pairs, each sorted by index.

        Returns:
            Merged ``(indices, values)``, indices strictly increasing.
        """

    @abstractmethod
    def inject_missing_keys(
        self,
        keys: np.ndarray,
        vals: np.ndarray,
        dense_range: tuple[int, int],
        stride: int = 1,
        offset: int = 0,
    ) -> SparseVector:
        """Missing-key injection (paper section 4.2.2).

        Inserts ``{key, 0}`` records for every absent key of the residue
        class ``offset + i * stride`` within ``[lo, hi)`` so the store
        queue can interleave core outputs into dense positions.

        Args:
            keys: Strictly increasing keys emitted by one merge core.
            vals: Matching accumulated values.
            dense_range: ``(lo, hi)`` global key range.
            stride: Residue-class stride (the PRaP core count ``p``).
            offset: The core's radix.

        Returns:
            ``(dense_keys, dense_vals)`` covering the full residue class.
        """

    @abstractmethod
    def scatter_dense(
        self, indices: np.ndarray, values: np.ndarray, n_out: int
    ) -> np.ndarray:
        """Store-queue kernel: place merged records into a dense vector.

        Args:
            indices: Strictly increasing record keys in ``[0, n_out)``.
            values: Record values.
            n_out: Dense output length.

        Returns:
            Dense ``float64`` vector; absent keys are 0.
        """

    @abstractmethod
    def vldi_stream_bits(self, deltas: np.ndarray, block_bits: int) -> int:
        """VLDI size accounting: total encoded bits of a delta stream.

        Must equal the length of the bit-exact
        :meth:`repro.compression.vldi.VLDICodec.encode` output.

        Args:
            deltas: Positive ``int64`` delta values.
            block_bits: VLDI payload block width ``w``.

        Returns:
            Total bits including continuation bits.
        """

    # ------------------------------------------------------------------
    # Plan-aware and batched entry points.
    #
    # The engine precomputes matrix-side structure (run boundaries,
    # output indices) into per-stripe plans (:class:`repro.core.plan.
    # StripePlan`); backends may exploit it.  The defaults below fall
    # back to the scalar kernels, so every backend is automatically
    # plan- and batch-capable and automatically bit-compatible -- fast
    # paths only override where they can keep the same accumulation
    # order.
    # ------------------------------------------------------------------

    def stripe_spmv_plan(self, stripe, x_segment: np.ndarray) -> SparseVector:
        """Step-1 kernel against a precomputed stripe plan.

        Args:
            stripe: A ``StripePlan`` carrying ``rows``/``cols``/``vals``
                plus the precomputed run structure.
            x_segment: Scratchpad-resident source-vector segment.

        Returns:
            ``(indices, values)`` of the intermediate sparse vector.
        """
        return self.stripe_spmv(stripe.rows, stripe.cols, stripe.vals, x_segment)

    def stripe_spmv_dense(
        self, stripe, x_segment: np.ndarray, n_out: int
    ) -> np.ndarray:
        """Step 1 of a one-stripe plan, returned as the dense result.

        A plan with one stripe has one intermediate vector, already
        row-sorted, so step 1 alone is ``A x``.  This default runs
        :meth:`stripe_spmv_plan` and scatters its records into a zero
        vector; overrides may produce the dense vector directly, as long
        as every row is the same sequential sum from ``+0.0`` and every
        row without a nonzero is ``0.0``.

        Args:
            stripe: The plan's only ``StripePlan``.
            x_segment: The source vector (the stripe spans every column).
            n_out: Dense output length (the matrix's row count).

        Returns:
            Dense ``float64`` vector of length ``n_out``.
        """
        indices, values = self.stripe_spmv_plan(stripe, x_segment)
        out = np.zeros(n_out, dtype=np.float64)
        out[indices] = values
        return out

    def stripe_spmv_plan_batch(self, stripe, segments: np.ndarray) -> SparseVector:
        """Multi-RHS step-1 kernel: ``V_k = A_k @ X_k`` for one stripe.

        Args:
            stripe: A ``StripePlan``.
            segments: Source segments, shape ``(width, k)`` -- one column
                per right-hand side.

        Returns:
            ``(indices, values)`` with ``values`` of shape
            ``(n_runs, k)``; column ``j`` is bit-identical to the
            single-RHS kernel on ``segments[:, j]``.
        """
        k = segments.shape[1]
        if k == 0:
            return stripe.out_indices, np.empty((stripe.n_runs, 0), dtype=np.float64)
        # One Fortran-order conversion makes every column view contiguous,
        # so the per-column loop below stops copying each RHS.
        segments = np.asfortranarray(segments)
        columns = [
            self.stripe_spmv_plan(stripe, segments[:, j])[1] for j in range(k)
        ]
        return stripe.out_indices, np.stack(columns, axis=1)

    def map_stripe_plans(self, stripes: list, segments: list) -> list:
        """Run step 1 over all stripes.

        Args:
            stripes: ``StripePlan`` objects, one per column block.
            segments: Matching source-vector segments.

        Returns:
            Per-stripe ``(indices, values)`` pairs, in stripe order.
        """
        return [self.stripe_spmv_plan(sp, seg) for sp, seg in zip(stripes, segments)]

    def map_stripe_plans_batch(self, stripes: list, segments: list) -> list:
        """Multi-RHS variant of :meth:`map_stripe_plans`."""
        return [self.stripe_spmv_plan_batch(sp, seg) for sp, seg in zip(stripes, segments)]

    def merge_accumulate_batch(self, lists: list, k: int) -> SparseVector:
        """Multi-RHS K-way merge: values are ``(n, k)`` matrices.

        The key structure of intermediate vectors is independent of the
        right-hand side, so one merge serves all ``k`` columns; column
        ``j`` of the output must be bit-identical to
        :meth:`merge_accumulate` on the corresponding scalar lists.

        Args:
            lists: ``(indices, values)`` pairs with 2-D values.
            k: Batch width (columns of every value matrix).

        Returns:
            ``(indices, values)`` with ``values`` of shape ``(m, k)``.
        """
        if k == 0:
            idx, _ = self.merge_accumulate(
                [(i, np.zeros(np.asarray(i).size)) for i, _ in lists]
            )
            return idx, np.empty((idx.size, 0), dtype=np.float64)
        per_col = [
            self.merge_accumulate([(idx, val[:, j]) for idx, val in lists])
            for j in range(k)
        ]
        merged_idx = per_col[0][0]
        return merged_idx, np.stack([v for _, v in per_col], axis=1)

    def inject_classes(
        self, keys: np.ndarray, vals: np.ndarray, hi: int, p: int
    ) -> list:
        """Missing-key injection for every PRaP residue class.

        Args:
            keys: Strictly increasing merged keys.
            vals: Matching accumulated values.
            hi: One past the largest (padded) key.
            p: PRaP core count (power of two).

        Returns:
            ``p`` dense ``(keys, vals)`` streams, one per radix, in radix
            order -- ready for the store queue.
        """
        out = []
        for radix in range(p):
            mask = (keys & (p - 1)) == radix
            out.append(
                self.inject_missing_keys(
                    keys[mask], vals[mask], (0, hi), stride=p, offset=radix
                )
            )
        return out

    # ------------------------------------------------------------------
    # Fused (symbolic/numeric split) step-2 kernels.
    #
    # A :class:`repro.core.plan.Step2Symbolic` carries the precomputed
    # merge permutation, run ids and merged keys (the scatter map); the
    # kernels below consume only the *values*.  Defaults fall back to
    # the scalar kernels, so every backend (including the
    # record-at-a-time oracle) is automatically fused-capable and
    # automatically bit-compatible.
    # ------------------------------------------------------------------

    def merge_accumulate_plan(self, symbolic, lists: list) -> np.ndarray:
        """K-way merge against precomputed structure: values only.

        Args:
            symbolic: The plan's :class:`~repro.core.plan.Step2Symbolic`.
            lists: ``(indices, values)`` pairs in stripe order (the
                order the symbolic permutation was derived from).

        Returns:
            Accumulated values aligned with ``symbolic.merged_keys``.
        """
        return self.merge_accumulate(lists)[1]

    def merge_accumulate_plan_batch(self, symbolic, lists: list, k: int) -> np.ndarray:
        """Multi-RHS variant of :meth:`merge_accumulate_plan`.

        Returns:
            Accumulated values of shape ``(n_merged, k)``, rows aligned
            with ``symbolic.merged_keys``.
        """
        return self.merge_accumulate_batch(lists, k)[1]

    def inject_classes_plan(self, symbolic, merged_vals) -> list:
        """Missing-key injection of planned merge output, per residue class.

        The engine no longer calls this: its step 2 scatters the merged
        keys directly, which writes the same bytes as injecting every
        class and interleaving the streams through the store queue
        (paper section 4.2.2).  It stays as the planned counterpart of
        :meth:`inject_classes` for callers that want the per-core
        streams, and because ``perfbench/tracer.py`` wraps it by name.

        Args:
            symbolic: The plan's :class:`~repro.core.plan.Step2Symbolic`.
            merged_vals: Values aligned with ``symbolic.merged_keys``.

        Returns:
            ``p`` dense per-class *value* streams in radix order; stream
            ``r`` holds keys ``r, r + p, ...`` below ``symbolic.padded``.
        """
        streams = self.inject_classes(
            symbolic.merged_keys, merged_vals, symbolic.padded, symbolic.p
        )
        return [vals for _keys, vals in streams]

    # ------------------------------------------------------------------
    # SpGEMM kernels.
    #
    # ``C = A @ B`` rides the same plan-replay substrate: a
    # :class:`repro.core.plan.SpGEMMPlan` carries the partial-product
    # gather structure and the merge permutation; the kernels below
    # consume only values.  The defaults replay records one at a time in
    # stream order -- the reference scalar oracle -- so every backend is
    # automatically SpGEMM-capable and automatically bit-compatible;
    # fast paths override where they can keep the same accumulation
    # order.
    # ------------------------------------------------------------------

    def spgemm_products(self, splan, b_vals: np.ndarray) -> np.ndarray:
        """Partial-product value stream of ``C = A @ B`` in plan order.

        Args:
            splan: The plan's :class:`~repro.core.plan.SpGEMMPlan`.
            b_vals: The right operand's value array (``b.vals`` of the
                matrix the plan was built against).

        Returns:
            ``float64`` products, one per partial-product record, in the
            plan's stream order (blocks ascending, row-major within).
        """
        out = np.empty(splan.total_records, dtype=np.float64)
        gather = splan.gather_b.tolist()
        scale = splan.a_scale.tolist()
        for i in range(splan.total_records):
            out[i] = float(b_vals[gather[i]]) * scale[i]
        return out

    def spgemm_merge(self, splan, products: np.ndarray) -> np.ndarray:
        """Multi-way merge of the partial-product stream into ``C``'s values.

        Accumulates each output cell's contributions sequentially in
        sorted-stream order (the precomputed stable permutation) -- the
        exact left-associated addition ``np.bincount`` performs -- so
        every override must be bit-identical to this loop.

        Args:
            splan: The plan's :class:`~repro.core.plan.SpGEMMPlan`.
            products: Partial-product values from :meth:`spgemm_products`.

        Returns:
            Accumulated values aligned with ``(splan.out_rows,
            splan.out_cols)``.
        """
        out = np.zeros(splan.n_merged, dtype=np.float64)
        order = splan.order.tolist()
        run_ids = splan.run_ids.tolist()
        for pos in range(len(order)):
            out[run_ids[pos]] += float(products[order[pos]])
        return out

    def scatter_dense_plan(self, symbolic, merged_vals) -> np.ndarray:
        """Store-queue scatter against the precomputed scatter map.

        Args:
            symbolic: The plan's :class:`~repro.core.plan.Step2Symbolic`.
            merged_vals: Values aligned with ``symbolic.merged_keys``.

        Returns:
            Dense ``float64`` vector of length ``symbolic.n_out``.
        """
        return self.scatter_dense(symbolic.merged_keys, merged_vals, symbolic.n_out)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} name={self.name!r}>"
