"""Execution plans: cached matrix-side preparation for Two-Step SpMV.

Everything the engine derives from the *matrix alone* -- column
blocking, per-stripe run structure (the row boundaries the step-1 adder
chain collapses), stripe format selection, VLDI bit counts for matrix
and intermediate-index streams, the HDN degree table and Bloom filter,
and the complete cycle/record statistics of both steps -- is computed
once into an :class:`ExecutionPlan` and reused by every subsequent
``run()`` on the same matrix.  Iterative clients (PageRank, CG, BFS,
k-core) call SpMV dozens of times on one matrix; with a plan, iteration
2..N pays only for the value datapath: gather, multiply, accumulate,
merge, scatter.

This is the software counterpart of what the hardware gets for free:
the accelerator streams the *same* preprocessed stripe layout from DRAM
every iteration, it never re-derives it.  SpArch's condensed matrix
staging and SMASH's compressed-index reuse (see PAPERS.md) make the
same amortization argument.

Plans hold only structure-derived state, so one plan serves any
right-hand side -- including batched multi-RHS execution -- and any
bit-compatible backend.  A plan keeps only what its calls read: a
one-stripe plan reads the matrix's own arrays in place (so a planned
matrix must not be mutated), and the state that only some calls read
-- each stripe's batch layout, the step-2 symbolic structure, SpGEMM
structures, per-batch ledgers -- is built on first use and cached on
the plan.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from types import SimpleNamespace

import numpy as np

from repro.backends import ExecutionBackend
from repro.compression.delta import delta_encode, stripe_column_deltas
from repro.core.config import TwoStepConfig
from repro.core.segsum import RunLayout, build_run_layout, run_boundaries
from repro.core.step1 import Step1Stats, account_stripe
from repro.core.step2 import Step2Stats, merge_stats
from repro.filters.hdn import HDNDetector
from repro.formats.blocking import ColumnBlock, column_blocks
from repro.formats.convert import coo_to_csr
from repro.formats.coo import COOMatrix
from repro.formats.hypersparse import StripeFormat, choose_stripe_format
from repro.memory.traffic import TrafficLedger
from repro.telemetry.session import metric_inc, span

#: Width of an uncompressed index field in the DRAM layout.  The hardware
#: uses fixed 32-bit fields for row/column/intermediate indices whatever
#: the actual dimension; VLDI is what removes that slack.
INDEX_FIELD_BYTES = 4

#: Guards the store of a stripe's batch layout (:meth:`StripePlan._batch_layout`).
_BATCH_LOCK = threading.Lock()


@dataclass(frozen=True)
class StripePlan:
    """Precomputed execution state of one column stripe.

    Attributes:
        index: Stripe number ``k``.
        col_lo: First global column (inclusive).
        col_hi: One past the last global column (exclusive).
        rows: Stripe row indices (row-major order).  A stripe that
            spans every column reads the matrix's own ``rows``,
            ``cols`` and ``vals`` in place; no stripe array is ever
            written.
        cols: Stripe-local column indices.
        vals: Nonzero values.
        out_indices: Row index of each accumulated output record --
            the structure-determined indices of ``v_k``.
        run_ids: Per-nonzero output-record id (``cumsum`` of row-run
            boundaries minus one); lets backends skip re-deriving runs.
        n_runs: Output records (= ``out_indices.size``).
        fmt: Chosen DRAM stripe format (CSR vs RM-COO).
        matrix_bytes: Off-chip bytes to stream the stripe (meta + values).
        iv_index_bits: Encoded bits of the intermediate index stream
            (VLDI when enabled, fixed fields otherwise).

    The multi-RHS accumulation kernel's inputs -- :attr:`run_groups`,
    :attr:`batch_cols` and :attr:`batch_vals` -- are built together the
    first time one of them is read (a row-major ``run_many``) and kept
    on the stripe, so a plan that never batches never pays for them.
    """

    index: int
    col_lo: int
    col_hi: int
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    out_indices: np.ndarray
    run_ids: np.ndarray
    n_runs: int
    fmt: StripeFormat
    matrix_bytes: float
    iv_index_bits: int
    _batch: tuple | None = field(default=None, repr=False, compare=False)

    @property
    def run_groups(self) -> RunLayout:
        """Position-major run layout
        (:class:`~repro.core.segsum.RunLayout`) for the order-preserving
        multi-RHS accumulation kernel; it keeps no record map, because
        the kernel reads :attr:`batch_cols` and :attr:`batch_vals`."""
        return self._batch_layout()[0]

    @property
    def batch_cols(self) -> np.ndarray:
        """``cols`` permuted into the layout's record order:
        position-major below the layout's loop cut, then each long run's
        remaining records."""
        return self._batch_layout()[1]

    @property
    def batch_vals(self) -> np.ndarray:
        """``vals`` in the same order as :attr:`batch_cols`."""
        return self._batch_layout()[2]

    def _batch_layout(self) -> tuple:
        """``(run_groups, batch_cols, batch_vals)``, built on first use.

        Safe from several threads: the build runs outside the lock and
        the first result stored wins, so every caller gets the same
        arrays and the stripe keeps one layout.
        """
        batch = self._batch
        if batch is None:
            layout = build_run_layout(run_boundaries(self.rows)[2])
            built = (
                replace(layout, rec=None),
                self.cols[layout.rec],
                self.vals[layout.rec],
            )
            with _BATCH_LOCK:
                if self._batch is None:
                    # Frozen dataclass: the cache slot is set past __setattr__.
                    object.__setattr__(self, "_batch", built)
                batch = self._batch
        return batch

    @property
    def width(self) -> int:
        """Stripe width (= length of the matching vector segment)."""
        return self.col_hi - self.col_lo

    @property
    def nnz(self) -> int:
        """Nonzeros in the stripe."""
        return int(self.rows.size)


@dataclass(frozen=True)
class Step2Symbolic:
    """Precomputed step-2 index machinery for one ``(matrix, p)`` pair.

    Everything the K-way merge and the dense scatter derive from
    *structure* -- the stable merge permutation, the run-id array and
    the merged key set that doubles as the scatter map -- computed once
    from the plan's stripes.  The per-iteration numeric path is then a
    pure gather / ``bincount`` / scatter datapath over these arrays.
    The engine scatters merged keys directly, so no per-class injection
    structure is kept: missing-key injection and the store queue (paper
    section 4.2.2) only decide where each merged value lands, which the
    scatter map already says.

    Bit-identity argument: ``np.argsort(kind="stable")`` is a pure
    function of the concatenated key stream, which is fixed by the
    stripe structure.  Reusing ``order`` therefore replays the exact
    accumulation order of a from-scratch merge, and ``bincount`` adds
    weights sequentially in stream order -- so planned outputs equal a
    from-scratch :func:`~repro.merge.prap.prap_merge_dense` (and the
    reference oracle) bit for bit.

    Attributes:
        p: PRaP merge cores (``2**q``); core ``r`` owns keys with
            ``key & (p - 1) == r``.
        n_out: Output-vector dimension.
        padded: ``n_out`` rounded up to a multiple of ``p`` (store-queue
            cycles are full rounds); read by the base backend's
            ``inject_classes_plan``.
        total_records: Records across all intermediate vectors.
        n_merged: Distinct output keys after accumulation.
        order: Stable argsort of the concatenated ``out_indices``
            streams (stripe order) -- the global merge permutation.
        run_ids: Per-sorted-record merged-output id; ``bincount`` weights
            collapse equal keys in stream order.
        merged_keys: Sorted distinct keys; doubles as the dense scatter
            map (``out[merged_keys] = merged_vals``).
        run_groups: Position-major run layout
            (:class:`~repro.core.segsum.RunLayout`) of the sorted merge
            stream with ``order`` composed in, for the order-preserving
            multi-RHS kernel.
    """

    p: int
    n_out: int
    padded: int
    total_records: int
    n_merged: int
    order: np.ndarray
    run_ids: np.ndarray
    merged_keys: np.ndarray
    run_groups: RunLayout


def build_step2_symbolic(stripes: list, n_out: int, p: int) -> Step2Symbolic:
    """Derive the full step-2 symbolic structure from stripe plans.

    Args:
        stripes: :class:`StripePlan` list in stripe order (the merge
            consumes intermediate vectors in exactly this order).
        n_out: Output-vector dimension.
        p: PRaP merge cores; must be a positive power of two.

    Returns:
        The immutable :class:`Step2Symbolic`.

    Raises:
        ConfigurationError: ``p`` is not a positive power of two.
        ValueError: A record key falls outside ``[0, n_out)`` (same
            check the numeric merge used to run per call).
    """
    from repro.faults.errors import ConfigurationError

    if p <= 0 or (p & (p - 1)) != 0:
        raise ConfigurationError("p must be a positive power of two")
    parts = [sp.out_indices for sp in stripes]
    all_keys = (
        np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
    )
    order = np.argsort(all_keys, kind="stable")
    sorted_keys = all_keys[order]
    if sorted_keys.size and (sorted_keys[0] < 0 or sorted_keys[-1] >= n_out):
        raise ValueError("record key outside output vector range")
    new_run, run_ids, run_starts = run_boundaries(sorted_keys)
    merged_keys = sorted_keys[new_run]
    # The key streams are dead; free them before the layout's temporaries.
    del all_keys, sorted_keys, new_run
    run_groups = build_run_layout(run_starts, order=order)
    return Step2Symbolic(
        p=p,
        n_out=int(n_out),
        padded=int(-(-n_out // p) * p),
        total_records=int(order.size),
        n_merged=int(merged_keys.size),
        order=order,
        run_ids=run_ids,
        merged_keys=merged_keys,
        run_groups=run_groups,
    )


#: SpGEMM plans retained per execution plan (LRU by right-operand
#: identity).  A plan holds O(flops) index arrays, so the cache is small;
#: iterative clients (triangle counting, batched BFS) reuse one or two
#: right operands per left matrix.
SPGEMM_PLAN_CAPACITY = 4


@dataclass(frozen=True)
class SpGEMMPlan:
    """Precomputed symbolic structure for ``C = A @ B`` on one ``(A, B)``.

    The SpGEMM analogue of :class:`Step2Symbolic`: everything the
    partial-product expansion and the multi-way merge derive from
    *structure* (which entries of ``B`` each stripe record touches, the
    stable merge permutation over linearized ``(row, col)`` keys, the
    run boundaries, the output coordinates) is computed once; the
    per-call numeric path is a pure gather / multiply / ``bincount`` over
    these arrays -- no per-call argsort, exactly like warm SpMV replay.

    Stream order: column blocks ascending, and within a block the
    stripe's row-major ``(row, local_col)`` record order, each record
    expanded over its ``B``-row in ascending-column (CSR) order.  For a
    fixed output cell ``(i, j)`` the partial products therefore arrive
    in ascending inner-index ``k`` -- the same order row-wise Gustavson
    feeds its per-row merge -- and the merge accumulates them with the
    same stable-sort + stream-order addition, so engine SpGEMM is
    bit-identical to the row-wise :func:`repro.core.spgemm.spgemm`.

    Attributes:
        b: The right operand (held strongly; the cache checks identity).
        n_rows: Rows of ``C`` (= rows of ``A``).
        n_cols: Columns of ``C`` (= columns of ``B``).
        n_blocks: Column blocks of ``A`` (stripes of the owning plan).
        gather_b: Per partial-product record, the index into ``b.vals``
            of the ``B`` entry it multiplies (stream order).
        a_scale: Per record, the ``A`` value scaling it (stream order).
        order: Stable argsort of the linearized ``row * n_cols + col``
            key stream -- the global merge permutation.
        run_ids: Per-sorted-record merged-output id (``bincount``
            weights collapse equal keys in stream order).
        out_rows: Row coordinate of each merged output record.
        out_cols: Column coordinate of each merged output record.
        total_records: Partial-product records across all blocks.
        n_merged: Distinct ``(row, col)`` cells of ``C``.
    """

    b: COOMatrix
    n_rows: int
    n_cols: int
    n_blocks: int
    gather_b: np.ndarray
    a_scale: np.ndarray
    order: np.ndarray
    run_ids: np.ndarray
    out_rows: np.ndarray
    out_cols: np.ndarray
    total_records: int
    n_merged: int

    @property
    def compression(self) -> float:
        """Partial-product records per output record (merge reduction)."""
        return self.total_records / self.n_merged if self.n_merged else 1.0

    @property
    def run_groups(self) -> SimpleNamespace:
        """The merge's index maps, ``((run_ids, order),)``, as ``groups``.

        The SpGEMM merge is one ``bincount`` over ``products[order]``,
        so it needs no segment-sum layout; this view exposes the two
        arrays it reads in the ``groups`` shape that
        :class:`~repro.core.segsum.RunLayout` offers for byte
        accounting.  Nothing is built.
        """
        return SimpleNamespace(groups=((self.run_ids, self.order),))


def build_spgemm_plan(stripes: list, b: COOMatrix, n_rows: int) -> SpGEMMPlan:
    """Derive the SpGEMM symbolic structure from ``A``'s stripes and ``B``.

    Args:
        stripes: ``A``'s :class:`StripePlan` list in stripe order.
        b: Right operand; ``b.n_rows`` must equal ``A``'s column count
            (the stripes' global column range).
        n_rows: Rows of ``A`` (= rows of ``C``).

    Returns:
        The immutable :class:`SpGEMMPlan`.
    """
    b_csr = coo_to_csr(b)
    row_lens = np.diff(b_csr.row_ptr)
    gather_parts, scale_parts, key_parts = [], [], []
    total = 0
    for sp in stripes:
        if sp.vals.size:
            k_global = sp.col_lo + sp.cols
            lens = row_lens[k_global]
            count = int(lens.sum())
            if count:
                # Expand each stripe record over its B row: positions
                # row_ptr[k] .. row_ptr[k] + lens, ascending B columns.
                ends = np.cumsum(lens)
                within = np.arange(count, dtype=np.int64) - np.repeat(
                    ends - lens, lens
                )
                gather = np.repeat(b_csr.row_ptr[k_global], lens) + within
                gather_parts.append(gather)
                scale_parts.append(np.repeat(sp.vals, lens))
                key_parts.append(
                    np.repeat(sp.rows, lens) * b.n_cols + b_csr.cols[gather]
                )
                total += count
    if total:
        gather_b = np.concatenate(gather_parts)
        a_scale = np.concatenate(scale_parts)
        all_keys = np.concatenate(key_parts)
    else:
        gather_b = np.empty(0, dtype=np.int64)
        a_scale = np.empty(0, dtype=np.float64)
        all_keys = np.empty(0, dtype=np.int64)
    # Same stable merge derivation as build_step2_symbolic, over the
    # linearized (row, col) keys instead of output-row indices.
    order = np.argsort(all_keys, kind="stable")
    sorted_keys = all_keys[order]
    # The unsorted keys are dead; free them before the run temporaries.
    del all_keys
    new_run, run_ids = run_boundaries(sorted_keys)[:2]
    merged_keys = sorted_keys[new_run]
    n_merged = int(merged_keys.size)
    return SpGEMMPlan(
        b=b,
        n_rows=int(n_rows),
        n_cols=int(b.n_cols),
        n_blocks=len(stripes),
        gather_b=gather_b,
        a_scale=a_scale,
        order=order,
        run_ids=run_ids,
        out_rows=merged_keys // b.n_cols if n_merged else merged_keys,
        out_cols=merged_keys % b.n_cols if n_merged else merged_keys.copy(),
        total_records=int(total),
        n_merged=n_merged,
    )


@dataclass
class ExecutionPlan:
    """Reusable matrix-side state for Two-Step execution on one matrix.

    Attributes:
        matrix: The planned matrix (held strongly: the plan is only
            valid for exactly this object, and the cache checks
            identity on lookup).  A one-stripe plan's stripe reads its
            arrays in place, so it must not be mutated.
        fingerprint: Configuration fingerprint the plan was built under.
        stripes: Per-stripe plans in stripe order.
        stripe_formats: Chosen formats, in stripe order.
        detector: Prebuilt HDN detector (None when HDN is disabled).
        hdn_filter_bytes: On-chip Bloom filter bytes.
        intermediate_records: Total records across all ``v_k``.
        step1_template: Complete step-1 statistics (structure-only, so
            identical for every run); copied into each report.
        step2_template: Complete step-2 statistics, ditto.
        build_s: Wall-clock seconds spent building the plan.
        run_samples: Batch size -> the per-run telemetry samples the
            engine publishes for a run of that many right-hand sides
            (structure-only, like the templates).  Filled lazily by the
            engine on its first telemetry-enabled run of each size, so
            building a plan does not pay for it.
        ledgers: Batch size -> that batch's :meth:`traffic_ledger`,
            derived on the first :meth:`run_ledger` call of each size
            and copied into each report from then on.

    Building a plan derives only what every call reads.  The rest is
    built on first use and cached on the plan, so it rides the engine's
    existing LRU plan cache: each stripe's batch layout on the first
    row-major ``run_many`` (:attr:`StripePlan.run_groups`), the step-2
    symbolic structures (:class:`Step2Symbolic`) per ``p`` via
    :meth:`step2_symbolic` -- the cache key effectively includes ``p``
    because each radix gets its own slot and ``q`` is part of the config
    fingerprint -- and SpGEMM structures per right operand via
    :meth:`spgemm_plan`.
    """

    matrix: COOMatrix
    fingerprint: str
    stripes: list = field(default_factory=list)
    stripe_formats: list = field(default_factory=list)
    detector: HDNDetector | None = None
    hdn_filter_bytes: int = 0
    intermediate_records: int = 0
    step1_template: Step1Stats = field(default_factory=Step1Stats)
    step2_template: Step2Stats = field(default_factory=Step2Stats)
    build_s: float = 0.0
    run_samples: dict = field(default_factory=dict, repr=False, compare=False)
    ledgers: dict = field(default_factory=dict, repr=False, compare=False)
    _symbolic: dict = field(default_factory=dict, repr=False, compare=False)
    _symbolic_lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )
    _spgemm: OrderedDict = field(
        default_factory=OrderedDict, repr=False, compare=False
    )

    @property
    def n_rows(self) -> int:
        """Result-vector dimension."""
        return self.matrix.n_rows

    @property
    def n_cols(self) -> int:
        """Source-vector dimension."""
        return self.matrix.n_cols

    def step2_symbolic(self, p: int) -> Step2Symbolic:
        """The cached step-2 symbolic structure for ``p`` merge cores.

        Built once per ``(plan, p)`` under a ``plan.symbolic`` span
        (counter ``spmv_plan_symbolic_builds_total``); subsequent calls
        are pure dictionary hits (``spmv_step2_plan_hits_total``), so
        steady-state iterations never touch an argsort.
        """
        with self._symbolic_lock:
            symbolic = self._symbolic.get(p)
        if symbolic is not None:
            metric_inc(
                "spmv_step2_plan_hits_total",
                labels={"p": str(p)},
                help="Cached step-2 symbolic structure reuses",
            )
            return symbolic
        with span("plan.symbolic", p=p):
            symbolic = build_step2_symbolic(self.stripes, self.n_rows, p)
        metric_inc(
            "spmv_plan_symbolic_builds_total",
            labels={"p": str(p)},
            help="Step-2 symbolic structures built",
        )
        with self._symbolic_lock:
            return self._symbolic.setdefault(p, symbolic)

    def spgemm_plan(self, b: COOMatrix) -> SpGEMMPlan:
        """The cached SpGEMM symbolic structure for right operand ``b``.

        Built once per ``(plan, b)`` under a ``spgemm.plan`` span
        (counter ``spgemm_plan_builds_total``); subsequent calls with
        the *same* ``b`` object are pure dictionary hits
        (``spgemm_plan_hits_total``), so warm ``C = A @ B`` replays
        never touch an argsort.  Entries are keyed by ``id(b)`` and hold
        ``b`` strongly with an identity re-check on lookup, so a
        recycled id can never alias a different matrix; the per-plan
        cache is a small LRU (:data:`SPGEMM_PLAN_CAPACITY`).

        Raises:
            ConfigurationError: ``b.n_rows`` does not match this plan's
                column count (inner-dimension mismatch).
        """
        from repro.faults.errors import ConfigurationError

        if b.n_rows != self.n_cols:
            raise ConfigurationError(
                f"spgemm inner dimensions differ: A is "
                f"{self.n_rows}x{self.n_cols}, B is {b.n_rows}x{b.n_cols}"
            )
        key = id(b)
        with self._symbolic_lock:
            cached = self._spgemm.get(key)
            if cached is not None and cached.b is b:
                self._spgemm.move_to_end(key)
            else:
                cached = None
        if cached is not None:
            metric_inc(
                "spgemm_plan_hits_total",
                help="Cached SpGEMM symbolic structure reuses",
            )
            return cached
        with span("spgemm.plan", b_nnz=b.nnz):
            built = build_spgemm_plan(self.stripes, b, self.n_rows)
        metric_inc(
            "spgemm_plan_builds_total",
            help="SpGEMM symbolic structures built",
        )
        with self._symbolic_lock:
            cached = self._spgemm.get(key)
            if cached is not None and cached.b is b:
                return cached
            self._spgemm[key] = built
            self._spgemm.move_to_end(key)
            while len(self._spgemm) > SPGEMM_PLAN_CAPACITY:
                self._spgemm.popitem(last=False)
            return built

    def step1_stats(self) -> Step1Stats:
        """Fresh per-run copy of the step-1 statistics."""
        stats = _copy(self.step1_template)
        stats.per_stripe_nnz = list(stats.per_stripe_nnz)
        return stats

    def step2_stats(self) -> Step2Stats:
        """Fresh per-run copy of the step-2 statistics."""
        return _copy(self.step2_template)

    def run_ledger(self, config: TwoStepConfig, batch: int = 1) -> TrafficLedger:
        """Fresh per-run copy of :meth:`traffic_ledger`.

        The ledger depends only on the plan, the configuration it was
        built under and ``batch``, so it is derived once per batch size
        and cached in :attr:`ledgers`.
        """
        ledger = self.ledgers.get(batch)
        if ledger is None:
            ledger = self.ledgers.setdefault(
                batch, self.traffic_ledger(config, batch=batch)
            )
        copy = _copy(ledger)
        copy.notes = dict(ledger.notes)
        return copy

    def traffic_ledger(self, config: TwoStepConfig, batch: int = 1) -> TrafficLedger:
        """The run's byte-accurate traffic ledger.

        For ``batch > 1`` (multi-RHS execution) the matrix and the
        intermediate *index* streams are charged once -- they are shared
        by every right-hand side -- while dense vectors and intermediate
        *values* are charged per RHS.  ``batch=1`` reproduces the
        historical single-vector accounting bit for bit.

        Args:
            config: Engine configuration (precision, VLDI notes).
            batch: Number of right-hand sides sharing this pass.

        Returns:
            A fresh :class:`TrafficLedger`.
        """
        ledger = TrafficLedger()
        for sp in self.stripes:
            ledger.matrix_bytes += sp.matrix_bytes
            ledger.intermediate_write_bytes += (
                sp.iv_index_bits / 8.0 + batch * (sp.n_runs * config.precision.bytes)
            )
        ledger.source_vector_bytes = batch * (self.n_cols * config.precision.bytes)
        ledger.result_vector_bytes = batch * (self.n_rows * config.precision.bytes)
        ledger.intermediate_read_bytes = ledger.intermediate_write_bytes
        ledger.notes["vldi_vector"] = config.vldi_vector_block_bits
        ledger.notes["vldi_matrix"] = config.vldi_matrix_block_bits
        return ledger


def _copy(template):
    """Shallow copy of a plain dataclass instance.

    Cheaper than ``dataclasses.replace``, which re-runs ``__init__``
    field by field; every run's report copies three templates.  Callers
    copy the mutable fields themselves.
    """
    copy = object.__new__(type(template))
    copy.__dict__.update(template.__dict__)
    return copy


def config_fingerprint(config: TwoStepConfig) -> str:
    """Deterministic fingerprint of every plan-relevant config field.

    The full ``repr`` is used so *any* configuration change -- including
    backend selection, which controls the kernels a cached plan's VLDI
    bit counts were computed with -- invalidates cached plans.
    """
    return repr(config)


def _stripe_matrix_bytes(
    block: ColumnBlock,
    fmt: StripeFormat,
    n_rows: int,
    config: TwoStepConfig,
    backend: ExecutionBackend,
) -> float:
    """Off-chip bytes to stream one stripe: meta-data plus values.

    DRAM layouts pack absolute indices at byte granularity; only VLDI
    strings are bit-packed (that is the point of the scheme).
    """
    field_bits = 8 * INDEX_FIELD_BYTES
    if fmt is StripeFormat.RM_COO:
        row_bits = block.nnz * field_bits
    else:
        row_bits = (n_rows + 1) * field_bits
    if config.vldi_matrix_block_bits is not None and block.nnz:
        csr = coo_to_csr(block.matrix)
        col_bits = backend.vldi_stream_bits(
            stripe_column_deltas(csr.row_ptr, csr.cols), config.vldi_matrix_block_bits
        )
    else:
        col_bits = block.nnz * field_bits
    return (row_bits + col_bits) / 8.0 + block.nnz * config.precision.bytes


def _iv_index_bits(
    out_indices: np.ndarray, config: TwoStepConfig, backend: ExecutionBackend
) -> int:
    """Encoded bits of one intermediate vector's index stream."""
    if config.vldi_vector_block_bits is not None and out_indices.size:
        return backend.vldi_stream_bits(
            delta_encode(out_indices), config.vldi_vector_block_bits
        )
    return out_indices.size * 8 * INDEX_FIELD_BYTES


def build_plan(
    matrix: COOMatrix,
    config: TwoStepConfig,
    backend: ExecutionBackend,
) -> ExecutionPlan:
    """Build the full execution plan for ``matrix`` under ``config``.

    Args:
        matrix: Sparse matrix in RM-COO.
        config: Engine configuration.
        backend: Execution backend (supplies VLDI size accounting; all
            backends agree bit for bit, so a plan built under one
            backend is valid for any other).

    Returns:
        The :class:`ExecutionPlan`; the state only some calls read is
        built on first use.
    """
    start = time.perf_counter()
    detector = None
    if config.hdn is not None:
        detector = HDNDetector(matrix.row_degrees(), config.hdn)

    step1_stats = Step1Stats()
    stripes: list[StripePlan] = []
    formats: list[StripeFormat] = []
    for block in column_blocks(matrix, config.stripe_width(matrix.n_cols)):
        stripe = block.matrix
        run_ids, run_starts = run_boundaries(stripe.rows)[1:]
        out_indices = stripe.rows[run_starts[:-1]]
        n_runs = int(out_indices.size)
        fmt = choose_stripe_format(block.nnz, matrix.n_rows)
        formats.append(fmt)
        stripes.append(
            StripePlan(
                index=block.index,
                col_lo=block.col_lo,
                col_hi=block.col_hi,
                rows=stripe.rows,
                cols=stripe.cols,
                vals=stripe.vals,
                out_indices=out_indices,
                run_ids=run_ids,
                n_runs=n_runs,
                fmt=fmt,
                matrix_bytes=_stripe_matrix_bytes(
                    block, fmt, matrix.n_rows, config, backend
                ),
                iv_index_bits=_iv_index_bits(out_indices, config, backend),
            )
        )
        # Both steps' statistics are structure-only, so the plan holds
        # them as templates that every run's report copies.
        account_stripe(
            step1_stats, stripe.rows, run_starts, config.step1_pipelines, detector
        )
    step2_stats = merge_stats(
        [sp.out_indices for sp in stripes], matrix.n_rows, config.n_cores
    )

    return ExecutionPlan(
        matrix=matrix,
        fingerprint=config_fingerprint(config),
        stripes=stripes,
        stripe_formats=formats,
        detector=detector,
        hdn_filter_bytes=detector.filter_bytes if detector is not None else 0,
        intermediate_records=step2_stats.input_records,
        step1_template=step1_stats,
        step2_template=step2_stats,
        build_s=time.perf_counter() - start,
    )
