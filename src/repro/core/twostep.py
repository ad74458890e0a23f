"""The Two-Step SpMV engine (paper section 2).

Orchestrates 1-D column blocking, step 1 (partial SpMV per stripe), the
DRAM round trip of the intermediate vectors, and step 2 (PRaP multi-way
merge), producing the dense result plus a byte-accurate
:class:`~repro.memory.traffic.TrafficLedger` and cycle statistics.

Execution geometry and modelled geometry are separate.  Without an
explicit ``segment_width`` the plan is one stripe spanning every column:
its row-sorted step-1 output already is ``A x``, so the functional engine
skips step 2 -- ``run`` has the backend accumulate step 1 straight into
the dense result (one ``bincount`` by row on ``vectorized``), and so
does ``run_many`` for each column of a column-major block, while a
row-major block's step-1 output is scattered -- and the report still
charges the modelled traffic and cycles of that one-stripe plan.  An
explicit width (or a design point) cuts the matrix into scratchpad-sized
stripes and runs the full PRaP merge.

The engine is *functional* -- the returned vector is bit-comparable to the
dense reference ``A @ x + y`` (up to float associativity) -- while the
instrumentation mirrors exactly what the accelerator would move off-chip,
including per-stripe format selection (CSR vs RM-COO for hypersparse
stripes) and optional VLDI compression of vector and matrix meta-data.

Matrix-side preparation (blocking, run structure, format choice, VLDI
bit counts, HDN tables, both steps' cycle statistics) is captured once
per matrix in an :class:`~repro.core.plan.ExecutionPlan` and cached, so
iterative callers pay only for the value datapath after the first run.
``run_many`` executes a whole block of right-hand sides against one plan,
sharing every gather-index computation and merge permutation across the
batch.

The inner kernels (stripe accumulation, merge, dense scatter, VLDI
size accounting) are dispatched through an execution backend
(:mod:`repro.backends`): ``reference`` replays records one at a time,
and ``vectorized`` runs whole-array NumPy kernels.  Both produce
bit-identical results and byte-identical ledgers; only wall-clock speed
differs.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import asdict, dataclass, field

import numpy as np

from repro.api import SpGEMMResult, SpMVResult, resolve_config
from repro.backends import resolve_backend
from repro.core import step2
from repro.core.config import TwoStepConfig
from repro.core.plan import (
    ExecutionPlan,
    build_plan,
    config_fingerprint,
)
from repro.core.step1 import Step1Stats
from repro.faults.errors import ConfigurationError
from repro.faults.validation import validate_inputs, validate_matrix
from repro.formats.coo import COOMatrix
from repro.formats.hypersparse import StripeFormat
from repro.memory.traffic import TrafficLedger
from repro.telemetry import (
    MetricsRegistry,
    SeriesHandle,
    TelemetryReport,
    metric_record,
    span,
    telemetry_scope,
    telemetry_session,
)


#: Per-run metric series, resolved once (the backend-labelled
#: ``*_backend_runs_total`` series are resolved per engine).
_PLAN_HIT, _PLAN_MISS = (
    SeriesHandle(
        "spmv_plan_cache_events_total",
        "counter",
        labels={"outcome": outcome},
        help="Plan-cache lookups by outcome",
    )
    for outcome in ("hit", "miss")
)
_STREAM_BYTES = {
    stream: SeriesHandle(
        "spmv_stream_bytes_total",
        "counter",
        labels={"stream": stream},
        help="Off-chip bytes moved, by traffic stream",
    )
    for stream in TrafficLedger().breakdown()
}
_SHARD_IMBALANCE = SeriesHandle(
    "spmv_shard_imbalance_ratio",
    "gauge",
    help="Max/mean intermediate records across stripes",
)
_VLDI_BITS = SeriesHandle(
    "spmv_vldi_bits_per_index",
    "gauge",
    help="Encoded bits per intermediate index (VLDI or fixed)",
)
_RUN_SECONDS = SeriesHandle(
    "spmv_run_seconds", "histogram", help="Wall-clock seconds per engine run"
)
_SPGEMM_RUN_SECONDS = SeriesHandle(
    "spgemm_run_seconds", "histogram", help="Wall-clock seconds per SpGEMM run"
)
_SPGEMM_PARTIALS = SeriesHandle(
    "spgemm_partial_records_total",
    "counter",
    help="SpGEMM partial-product records expanded",
)
_SPGEMM_OUTPUTS = SeriesHandle(
    "spgemm_output_records_total",
    "counter",
    help="SpGEMM output records after merge accumulation",
)


@dataclass
class TwoStepReport:
    """Everything measured during one Two-Step SpMV execution."""

    traffic: TrafficLedger
    step1: Step1Stats
    step2: step2.Step2Stats
    n_stripes: int = 0
    intermediate_records: int = 0
    stripe_formats: list[StripeFormat] = field(default_factory=list)
    hdn_filter_bytes: int = 0
    backend: str = ""
    plan_cache_hits: int = 0
    plan_cache_misses: int = 0
    plan_build_s: float = 0.0
    batch_size: int = 1

    @property
    def total_cycles(self) -> float:
        """Step-1 plus step-2 cycles (sequential phases in plain Two-Step)."""
        return self.step1.cycles + self.step2.cycles

    def to_dict(self) -> dict:
        """Machine-readable form for benchmark output and logging.

        Enum members become their names and the ledger is flattened to its
        counters plus derived totals, so the dict round-trips through JSON.
        """
        traffic = asdict(self.traffic)
        traffic["payload_bytes"] = self.traffic.payload_bytes
        traffic["total_bytes"] = self.traffic.total_bytes
        return {
            "backend": self.backend,
            "n_stripes": self.n_stripes,
            "intermediate_records": self.intermediate_records,
            "stripe_formats": [fmt.name for fmt in self.stripe_formats],
            "hdn_filter_bytes": self.hdn_filter_bytes,
            "total_cycles": self.total_cycles,
            "plan_cache_hits": self.plan_cache_hits,
            "plan_cache_misses": self.plan_cache_misses,
            "plan_build_s": self.plan_build_s,
            "batch_size": self.batch_size,
            "step1": asdict(self.step1),
            "step2": asdict(self.step2),
            "traffic": traffic,
        }


@dataclass
class SpGEMMReport:
    """Everything measured during one engine SpGEMM execution."""

    backend: str = ""
    n_blocks: int = 0
    partial_records: int = 0
    output_records: int = 0
    compression: float = 1.0
    plan_cache_hits: int = 0
    plan_cache_misses: int = 0
    batch_size: int = 1

    def to_dict(self) -> dict:
        """Machine-readable form for benchmark output and logging."""
        return {
            "backend": self.backend,
            "n_blocks": self.n_blocks,
            "partial_records": self.partial_records,
            "output_records": self.output_records,
            "compression": self.compression,
            "plan_cache_hits": self.plan_cache_hits,
            "plan_cache_misses": self.plan_cache_misses,
            "batch_size": self.batch_size,
        }


class TwoStepEngine:
    """Functional, instrumented Two-Step SpMV.

    Satisfies the :class:`repro.api.SpMVEngine` protocol.  The engine
    keeps an LRU cache of execution plans (capacity
    ``config.plan_cache``), so calling ``run`` repeatedly on the same
    matrix -- the shape of every iterative solver -- re-derives nothing
    matrix-sided after the first call.

    The configuration is pinned at construction by
    :func:`repro.api.resolve_config` (explicit value > ``REPRO_*``
    environment variable > package default): ``backend``,
    ``strict_validate`` and ``telemetry`` are settled on
    ``engine.config`` then, and later environment changes cannot alter a
    built engine.  ``engine.options_provenance`` records where each
    value came from.
    """

    def __init__(self, config: TwoStepConfig):
        """
        Args:
            config: Engine configuration; fields left None are resolved
                from their ``REPRO_*`` variable, then the package default.
                ``config.backend`` selects the execution backend.
        """
        config, self.options_provenance = resolve_config(config)
        self.config = config
        # The config is pinned, so its plan-cache key is too.
        self._fingerprint = config_fingerprint(config)
        self.backend = resolve_backend(config.backend)
        self._plans: OrderedDict[tuple, ExecutionPlan] = OrderedDict()
        # One lock guards the plan cache AND its counters: engines are
        # shared across solver threads, and a torn hits/misses pair (or a
        # cache trimmed past capacity) is exactly the race the lock kills.
        self._plan_lock = threading.Lock()
        self._plan_hits = 0
        self._plan_misses = 0
        self._plan_build_s = 0.0
        self._lifetime_metrics = MetricsRegistry()
        self._runs_series = SeriesHandle(
            "spmv_backend_runs_total",
            "counter",
            labels={"backend": self.backend.name},
            help="Engine runs, by backend",
        )
        self._spgemm_runs_series = SeriesHandle(
            "spgemm_backend_runs_total",
            "counter",
            labels={"backend": self.backend.name},
            help="SpGEMM runs, by backend",
        )

    def plan(self, matrix: COOMatrix) -> ExecutionPlan:
        """The (cached) execution plan for ``matrix`` under this config.

        Plans are keyed by matrix identity plus the configuration
        fingerprint; the cached plan holds a strong reference to the
        matrix and lookup re-checks ``plan.matrix is matrix``, so a
        recycled ``id`` can never alias a different matrix.

        Args:
            matrix: Sparse matrix in RM-COO.

        Returns:
            The matrix's :class:`~repro.core.plan.ExecutionPlan`.
        """
        key = (id(matrix), self._fingerprint)
        with self._plan_lock:
            cached = self._plans.get(key)
            if cached is not None and cached.matrix is matrix:
                self._plans.move_to_end(key)
                self._plan_hits += 1
                metric_record(_PLAN_HIT)
                return cached
            self._plan_misses += 1
            metric_record(_PLAN_MISS)
            with span("plan.build", matrix_id=id(matrix)):
                plan = build_plan(matrix, self.config, self.backend)
            self._plan_build_s += plan.build_s
            if self.config.plan_cache > 0:
                self._plans[key] = plan
                self._plans.move_to_end(key)
                while len(self._plans) > self.config.plan_cache:
                    self._plans.popitem(last=False)
            return plan

    @property
    def plan_cache_stats(self) -> dict:
        """Cache counters: hits, misses, currently cached plans, build seconds."""
        with self._plan_lock:
            return {
                "hits": self._plan_hits,
                "misses": self._plan_misses,
                "size": len(self._plans),
                "build_s": self._plan_build_s,
            }

    def clear_plan_cache(self) -> None:
        """Drop every cached plan (counters are kept)."""
        with self._plan_lock:
            self._plans.clear()

    def forget(self, matrix: COOMatrix) -> int:
        """Drop the cached plan(s) for one matrix; returns how many.

        The serving layer's registry calls this when it evicts a matrix
        under LRU pressure, so the engine's plan cache cannot pin an
        unregistered matrix (and its symbolic structures) in memory.
        """
        with self._plan_lock:
            stale = [
                key
                for key, plan in self._plans.items()
                if plan.matrix is matrix
            ]
            for key in stale:
                del self._plans[key]
        return len(stale)

    def run(
        self,
        matrix: COOMatrix,
        x: np.ndarray,
        y: np.ndarray | None = None,
        verify: bool = False,
    ) -> SpMVResult:
        """Execute ``y = A x + y``.

        Args:
            matrix: Sparse matrix in RM-COO.
            x: Dense source vector (length ``n_cols``).
            y: Optional dense accumuland (length ``n_rows``).
            verify: When True, check the result against the dense
                reference and record the outcome in the returned
                :class:`~repro.api.SpMVResult`.  The dense product is
                cached per ``(matrix, x)``, so verifying every iteration
                of a fixed-point solver costs one dense SpMV, not N.

        Returns:
            :class:`~repro.api.SpMVResult`; unpacks as ``(result, report)``.

        Raises:
            InvalidMatrixError: The matrix violates the input contract.
            InvalidVectorError: ``x`` or ``y`` violates the contract.
        """
        start = time.perf_counter()
        x, y = validate_inputs(matrix, x, y=y, strict=self.config.strict_validate)
        session = self._open_session()
        with telemetry_scope(session):
            with span("spmv.run", backend=self.backend.name, batch=1):
                plan = self.plan(matrix)
                result = self._execute(plan, x, y)
        report = self._report(plan, batch=1)
        verified = None
        if verify:
            base = reference_spmv_cached(matrix, x)
            reference = base if y is None else base + np.asarray(y, dtype=np.float64)
            verified = bool(np.allclose(result, reference))
        wall = time.perf_counter() - start
        return SpMVResult(
            y=result,
            report=report,
            verified=verified,
            wall_time_s=wall,
            telemetry=self._publish_telemetry(session, plan, report.batch_size, wall),
        )

    def run_many(
        self,
        matrix: COOMatrix,
        X: np.ndarray,
        Y: np.ndarray | None = None,
        verify: bool = False,
    ) -> SpMVResult:
        """Execute ``Y = A X + Y`` for a block of right-hand sides.

        One execution plan, one set of gather indices and one merge
        permutation serve every column; only the value datapath scales
        with the batch.  Column ``j`` of the result is bit-identical to
        ``run(matrix, X[:, j], y=Y[:, j])``.

        Args:
            matrix: Sparse matrix in RM-COO.
            X: Dense source block, shape ``(n_cols, k)``.  A 1-D vector
                of length ``n_cols`` is accepted as a batch of one and
                normalized to ``(n_cols, 1)``; transposed blocks and
                wrong-length 1-D operands raise a
                :class:`~repro.faults.errors.ConfigurationError` naming
                the expected layout.
            Y: Optional dense accumuland block, shape ``(n_rows, k)``
                (1-D of length ``n_rows`` normalized likewise).
            verify: Check every column against the (cached) dense
                reference.

        Returns:
            :class:`~repro.api.SpMVResult` whose ``y`` has shape
            ``(n_rows, k)``; without ``Y`` its memory order follows
            ``X``'s (a column-major ``X`` gives a column-major ``y``,
            each of whose columns is contiguous).  The report's traffic
            ledger charges the matrix and intermediate-index streams
            once for the whole batch.
        """
        start = time.perf_counter()
        X, Y = validate_inputs(
            matrix, X, y=Y, strict=self.config.strict_validate, batch=True
        )
        k = X.shape[1]
        session = self._open_session()
        with telemetry_scope(session):
            with span("spmv.run", backend=self.backend.name, batch=k):
                plan = self.plan(matrix)
                result = self._execute(plan, X, Y, k=k)
        report = self._report(plan, batch=max(k, 1))
        verified = None
        if verify:
            verified = True
            for j in range(k):
                base = reference_spmv_cached(matrix, X[:, j])
                reference = base if Y is None else base + Y[:, j]
                verified = verified and bool(np.allclose(result[:, j], reference))
        wall = time.perf_counter() - start
        return SpMVResult(
            y=result,
            report=report,
            verified=verified,
            wall_time_s=wall,
            telemetry=self._publish_telemetry(session, plan, report.batch_size, wall),
        )

    def _execute(
        self,
        plan: ExecutionPlan,
        X: np.ndarray,
        Y: np.ndarray | None,
        k: int | None = None,
    ) -> np.ndarray:
        """The value datapath of ``run`` (``k`` None) and ``run_many``.

        The stripe count alone picks the route.  A plan with several
        stripes runs step 1 and then the planned step-2 merge, which
        scatters the merged keys directly.  A one-stripe plan never
        merges: its row-sorted step-1 output already is ``A x``.  For
        ``run`` the backend's ``stripe_spmv_dense`` hook returns
        that output as the dense result (``vectorized``: one
        ``bincount`` over the stripe's rows, so no run values are built
        and nothing is scattered).  ``run_many`` on a column-major ``X``
        (every ``k == 1`` block is one) folds each contiguous column
        with the same hook into one contiguous row of a ``(k, n_rows)``
        buffer and returns its transpose, so column ``j`` is ``run``'s
        vector for ``X[:, j]``.  Only a row-major block (and a plan
        with no columns, hence no stripes) reaches the zero-and-scatter
        fallback: the position-major segment sum reads the block along
        its rows, and its single row-sorted output is scattered into a
        zero result.  Every route adds each row's products in stream
        order from ``+0.0`` and leaves empty rows at ``0.0``, so all
        return the bytes of the plan-free store-queue model of paper
        section 4.2.2 (:func:`~repro.merge.prap.prap_merge_dense`).
        """
        if len(plan.stripes) == 1:
            stripe = plan.stripes[0]
            if k is None:
                with span("step1", n_stripes=1):
                    out = self.backend.stripe_spmv_dense(
                        stripe, X[stripe.col_lo : stripe.col_hi], plan.n_rows
                    )
                return out if Y is None else out + Y
            if X.flags.f_contiguous:
                # Each column of a column-major block is contiguous:
                # fold it with run's kernel into one contiguous row.
                out = np.empty((k, plan.n_rows))
                with span("step1", n_stripes=1):
                    for j in range(k):
                        out[j] = self.backend.stripe_spmv_dense(
                            stripe, X[:, j], plan.n_rows
                        )
                return out.T if Y is None else out.T + Y
        segments = [X[sp.col_lo : sp.col_hi] for sp in plan.stripes]
        with span("step1", n_stripes=len(plan.stripes)):
            if k is None:
                lists = self.backend.map_stripe_plans(plan.stripes, segments)
            else:
                lists = self.backend.map_stripe_plans_batch(plan.stripes, segments)
        if len(lists) > 1:
            symbolic = plan.step2_symbolic(self.config.n_cores)
            # Looked up on the step2 module at call time, so wrappers
            # installed there (perfbench's tracer) see every call.
            with span("step2", n_lists=len(lists)):
                if k is None:
                    out = step2.prap_merge_dense_plan(
                        symbolic, lists, backend=self.backend
                    )
                else:
                    out = step2.prap_merge_dense_plan_batch(
                        symbolic, lists, k, backend=self.backend
                    )
            return out if Y is None else out + Y
        out = np.zeros(plan.n_rows if k is None else (plan.n_rows, k))
        for indices, values in lists:
            out[indices] = values
        return out if Y is None else out + Y

    def spgemm(
        self,
        a: COOMatrix,
        b: COOMatrix,
        verify: bool = False,
    ) -> SpGEMMResult:
        """Execute ``C = A @ B`` on the multi-way merge substrate.

        Rides the same machinery as SpMV: ``A``'s cached
        :class:`~repro.core.plan.ExecutionPlan` supplies the column
        blocking, and a :class:`~repro.core.plan.SpGEMMPlan` (cached on
        the plan per right operand) supplies the partial-product gather
        structure and the stable merge permutation.  Warm replays are
        argsort-free.  Results are bit-identical across every backend
        and to the row-wise Gustavson :func:`repro.core.spgemm.spgemm`:
        both feed each output cell its contributions in ascending
        inner-index order and accumulate them with the same sequential
        stream-order addition.

        Args:
            a: Left operand (``m x k``) in RM-COO.
            b: Right operand (``k x n``) in RM-COO.
            verify: When True, check ``C`` against the dense product
                (small matrices only) and record the outcome.

        Returns:
            :class:`~repro.api.SpGEMMResult`; unpacks as ``(c, report)``.

        Raises:
            ConfigurationError: Inner dimensions differ.
            InvalidMatrixError: An operand violates the input contract.
        """
        start = time.perf_counter()
        strict = self.config.strict_validate
        validate_matrix(a, strict=strict)
        validate_matrix(b, strict=strict)
        if a.n_cols != b.n_rows:
            raise ConfigurationError(
                f"spgemm inner dimensions differ: A is {a.n_rows}x{a.n_cols}, "
                f"B is {b.n_rows}x{b.n_cols}"
            )
        session = self._open_session()
        with telemetry_scope(session):
            with span("spgemm.run", backend=self.backend.name):
                plan = self.plan(a)
                splan = plan.spgemm_plan(b)
                with span("spgemm.products", records=splan.total_records):
                    products = self.backend.spgemm_products(splan, b.vals)
                with span("spgemm.merge", n_merged=splan.n_merged):
                    merged = self.backend.spgemm_merge(splan, products)
        c = COOMatrix(
            a.n_rows,
            b.n_cols,
            splan.out_rows,
            splan.out_cols,
            np.asarray(merged, dtype=np.float64),
        )
        cache = self.plan_cache_stats
        report = SpGEMMReport(
            backend=self.backend.name,
            n_blocks=splan.n_blocks,
            partial_records=splan.total_records,
            output_records=splan.n_merged,
            compression=splan.compression,
            plan_cache_hits=cache["hits"],
            plan_cache_misses=cache["misses"],
        )
        verified = None
        if verify:
            dense = a.to_dense() @ b.to_dense()
            verified = bool(np.allclose(c.to_dense(), dense))
        wall = time.perf_counter() - start
        return SpGEMMResult(
            c=c,
            report=report,
            verified=verified,
            wall_time_s=wall,
            telemetry=self._publish_spgemm_telemetry(session, report, wall),
        )

    def run_spgemm_many(
        self,
        a: COOMatrix,
        bs,
        verify: bool = False,
    ) -> list:
        """Execute ``C_i = A @ B_i`` for a sequence of right operands.

        ``A`` is planned once (subsequent lookups are plan-cache hits)
        and each ``B_i``'s SpGEMM symbolic structure is cached on the
        plan, so repeated batches over the same operands replay the pure
        value datapath.

        Args:
            a: Shared left operand in RM-COO.
            bs: Iterable of right operands.
            verify: Check every product against the dense reference.

        Returns:
            One :class:`~repro.api.SpGEMMResult` per right operand, in
            input order.
        """
        return [self.spgemm(a, b, verify=verify) for b in bs]

    def _publish_spgemm_telemetry(
        self, session, report: SpGEMMReport, wall_s: float
    ) -> TelemetryReport | None:
        """Snapshot one SpGEMM run's telemetry into the lifetime registry."""
        if session is None:
            return None
        metrics = session.metrics
        metrics.record_all(
            (
                (_SPGEMM_RUN_SECONDS, wall_s),
                (_SPGEMM_PARTIALS, report.partial_records),
                (_SPGEMM_OUTPUTS, report.output_records),
                (self._spgemm_runs_series, 1.0),
            )
        )
        telemetry = TelemetryReport(
            spans=session.tracer.finished(), metrics=metrics
        )
        self._lifetime_metrics.merge(metrics)
        return telemetry

    def _report(self, plan: ExecutionPlan, batch: int) -> TwoStepReport:
        """Assemble a report from the plan's precomputed templates."""
        cache = self.plan_cache_stats
        return TwoStepReport(
            traffic=plan.run_ledger(self.config, batch=batch),
            step1=plan.step1_stats(),
            step2=plan.step2_stats(),
            n_stripes=len(plan.stripes),
            intermediate_records=plan.intermediate_records,
            stripe_formats=list(plan.stripe_formats),
            hdn_filter_bytes=plan.hdn_filter_bytes,
            backend=self.backend.name,
            plan_cache_hits=cache["hits"],
            plan_cache_misses=cache["misses"],
            plan_build_s=cache["build_s"],
            batch_size=batch,
        )

    def _open_session(self):
        """A fresh telemetry session, or None when telemetry is off."""
        if not self.config.telemetry:
            return None
        return telemetry_session()

    def _publish_telemetry(
        self, session, plan: ExecutionPlan, batch: int, wall_s: float
    ) -> TelemetryReport | None:
        """Snapshot one run's telemetry and fold it into the lifetime registry.

        Derived metrics (per-stream bytes, stripe imbalance, index bits)
        depend only on the plan and the batch size, so they are derived
        on the first publish per ``(plan, batch)`` and replayed from
        ``plan.run_samples`` afterwards; every series is a resolved
        handle, and the run's registry is folded into the lifetime one
        in place.  Publishing costs a fixed handful of dictionary
        updates per run and can never perturb the measured execution.
        """
        if session is None:
            return None
        metrics = session.metrics
        metrics.record_all(
            self._run_samples(plan, batch)
            + ((_RUN_SECONDS, wall_s), (self._runs_series, 1.0))
        )
        telemetry = TelemetryReport(
            spans=session.tracer.finished(), metrics=metrics
        )
        self._lifetime_metrics.merge(metrics)
        return telemetry

    def _run_samples(self, plan: ExecutionPlan, batch: int) -> tuple:
        """``(handle, value)`` pairs every ``batch``-RHS run publishes."""
        samples = plan.run_samples.get(batch)
        if samples is not None:
            return samples
        ledger = plan.run_ledger(self.config, batch=batch)
        derived = [
            (_STREAM_BYTES[stream], nbytes)
            for stream, nbytes in ledger.breakdown().items()
        ]
        per_stripe = plan.step1_template.per_stripe_nnz
        if per_stripe:
            mean = sum(per_stripe) / len(per_stripe)
            derived.append(
                (_SHARD_IMBALANCE, (max(per_stripe) / mean) if mean else 0.0)
            )
        if plan.intermediate_records:
            total_bits = sum(sp.iv_index_bits for sp in plan.stripes)
            derived.append((_VLDI_BITS, total_bits / plan.intermediate_records))
        return plan.run_samples.setdefault(batch, tuple(derived))

    def metrics(self) -> MetricsRegistry:
        """Engine-lifetime metrics: every telemetry-enabled run merged."""
        return self._lifetime_metrics


def reference_spmv(
    matrix: COOMatrix, x: np.ndarray, y: np.ndarray | None = None
) -> np.ndarray:
    """Dense ground-truth ``y = A x + y`` for verification."""
    return matrix.spmv(x, y)


#: Cached dense references, keyed by matrix identity + source-vector bytes.
_REFERENCE_CACHE: OrderedDict[tuple, tuple] = OrderedDict()
_REFERENCE_CACHE_CAPACITY = 16
#: Guards every read and write of ``_REFERENCE_CACHE``: engines are shared
#: across threads, and an eviction between another thread's lookup and its
#: ``move_to_end`` would raise ``KeyError``.
_REFERENCE_LOCK = threading.Lock()


def reference_spmv_cached(matrix: COOMatrix, x: np.ndarray) -> np.ndarray:
    """Dense ``A @ x``, cached per ``(matrix, x)``.

    ``verify=True`` inside an iterative solver would otherwise recompute
    the same dense product every iteration.  Entries pin the matrix and
    a copy of ``x``, and a hit requires both identity of the matrix and
    equality of the vector, so hash collisions and recycled ids are
    harmless.  The returned array is marked read-only; add ``y`` with an
    out-of-place ``+``.

    Args:
        matrix: Sparse matrix in RM-COO.
        x: Dense source vector.

    Returns:
        Read-only dense ``float64`` product ``A @ x``.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    key = (id(matrix), hash(x.tobytes()))
    with _REFERENCE_LOCK:
        entry = _REFERENCE_CACHE.get(key)
        if entry is not None:
            cached_matrix, cached_x, base = entry
            if cached_matrix is matrix and np.array_equal(cached_x, x):
                _REFERENCE_CACHE.move_to_end(key)
                return base
    # The dense product runs unlocked; a racing thread may compute the
    # same entry, and the later insert simply replaces an equal one.
    base = matrix.spmv(x)
    base.flags.writeable = False
    entry = (matrix, x.copy(), base)
    with _REFERENCE_LOCK:
        _REFERENCE_CACHE[key] = entry
        _REFERENCE_CACHE.move_to_end(key)
        while len(_REFERENCE_CACHE) > _REFERENCE_CACHE_CAPACITY:
            _REFERENCE_CACHE.popitem(last=False)
    return base


def clear_reference_cache() -> None:
    """Empty the dense-reference cache (mainly for tests)."""
    with _REFERENCE_LOCK:
        _REFERENCE_CACHE.clear()
