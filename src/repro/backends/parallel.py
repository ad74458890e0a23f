"""Sharded multi-worker backend: the software analogue of PRaP scaling.

Step 1 fans out across column stripes (each worker computes one
stripe's intermediate vector ``v_k``).  Step 2 replays the plan's
precomputed merge: the accumulation fans out over contiguous merged-key
ranges, and missing-key injection over residue classes (each worker
dense-injects one ``key mod p`` class -- exactly the ownership rule the
paper's radix pre-sorter enforces in hardware, section 4.2).  Every
output key is produced by one worker in the sequential stream order, so
results are **bit-identical** to the ``vectorized`` and ``reference``
backends and traffic ledgers are byte-identical for every ``n_jobs``.

Workers default to a thread pool: the kernels are whole-array NumPy
operations whose C loops release the GIL, so threads overlap without
copying a byte.  An opt-in process pool
(``TwoStepConfig(parallel_pool="process")`` or
``ParallelBackend(pool_kind="process")``) sidesteps the interpreter
entirely for very large inputs; stripe arrays above the shared-memory
threshold travel through ``multiprocessing.shared_memory`` rather than
pickle.

Small inputs stay inline -- below the size-aware dispatch threshold
(``min_parallel_nnz`` constructor argument, ``REPRO_MIN_PARALLEL_NNZ``
environment variable, defaulting to
:data:`ParallelBackend.MIN_FANOUT_RECORDS`) the scheduling overhead
would dominate, so the backend degrades to the (identical-result)
vectorized path and counts the bypass in the
``spmv_parallel_bypass_total`` metric.

**Fault tolerance.**  Every fan-out runs under the pool's supervision
(per-task timeout, bounded retries, executor respawn after a worker
death); a shard that still fails is re-executed *sequentially* on the
inherited :class:`VectorizedBackend` kernels.  Because shard inputs are
owned by the parent (shared-memory payloads are copies of parent
arrays), the fallback computes from pristine data and the final result
stays bit-identical to the sequential backends -- a failure only costs
wall-clock time.  Each retry/fallback is recorded on the active
:class:`~repro.faults.report.FaultReport`; only when the sequential
fallback itself raises does the run abort, with a typed
:class:`~repro.faults.errors.ShardFailedError`.
"""

from __future__ import annotations

import os

import numpy as np

from repro.backends.base import SparseVector
from repro.backends.vectorized import VectorizedBackend
from repro.faults.errors import ConfigurationError, ShardFailedError
from repro.faults.report import record_event
from repro.parallel.pool import WorkerPool
from repro.telemetry.session import metric_inc
from repro.parallel.shm import ArrayExporter
from repro.parallel.workers import (
    inject_class_plan_task,
    merge_plan_chunk_task,
    spgemm_products_task,
    stripe_values_task,
)

#: Environment override for the size-aware dispatch guard (records below
#: which every fan-out site runs inline on the vectorized kernels).
MIN_PARALLEL_NNZ_ENV_VAR = "REPRO_MIN_PARALLEL_NNZ"


class ParallelBackend(VectorizedBackend):
    """Vectorized kernels sharded over an ``n_jobs`` worker pool.

    Inherits every scalar kernel from :class:`VectorizedBackend` (hence
    the bit-compatibility guarantees) and overrides the fan-out points:
    stripe mapping, planned merge accumulation, per-class injection and
    the SpGEMM kernels.
    """

    name = "parallel"

    #: Below this many records a kernel runs inline: fan-out overhead
    #: would exceed the work.
    MIN_FANOUT_RECORDS = 4096

    def __init__(
        self,
        n_jobs: int | None = None,
        pool_kind: str | None = None,
        max_retries: int | None = None,
        task_timeout: float | None = None,
        min_parallel_nnz: int | None = None,
    ):
        """
        Args:
            n_jobs: Worker count; None resolves ``REPRO_JOBS`` then the
                CPU count.
            pool_kind: ``"thread"`` (default) or ``"process"``.
            max_retries: Per-task retry budget; None resolves
                ``REPRO_MAX_RETRIES`` then the pool default.
            task_timeout: Per-task wall-clock limit in seconds; None
                resolves ``REPRO_TASK_TIMEOUT`` then no limit.
            min_parallel_nnz: Record count below which every fan-out
                site degrades to the inline vectorized path; None
                resolves ``REPRO_MIN_PARALLEL_NNZ`` then
                :data:`MIN_FANOUT_RECORDS`.

        Raises:
            ConfigurationError: ``min_parallel_nnz`` (explicit or via
                the environment) is negative or not an integer.
        """
        self.pool = WorkerPool(
            n_jobs,
            kind=pool_kind or "thread",
            max_retries=max_retries,
            task_timeout=task_timeout,
        )
        if min_parallel_nnz is None:
            raw = os.environ.get(MIN_PARALLEL_NNZ_ENV_VAR)
            if raw is not None:
                try:
                    min_parallel_nnz = int(raw)
                except ValueError:
                    raise ConfigurationError(
                        f"{MIN_PARALLEL_NNZ_ENV_VAR}={raw!r} is not an "
                        "integer; set it to a record count >= 0"
                    ) from None
        if min_parallel_nnz is not None and min_parallel_nnz < 0:
            raise ConfigurationError(
                f"min_parallel_nnz must be >= 0, got {min_parallel_nnz}"
            )
        self._min_parallel_nnz = min_parallel_nnz

    @property
    def n_jobs(self) -> int:
        """Configured worker count."""
        return self.pool.n_jobs

    @property
    def min_parallel_nnz(self) -> int:
        """Effective size threshold for the dispatch guard.

        Explicit constructor/environment values win; otherwise this
        reads :data:`MIN_FANOUT_RECORDS` *at call time* so tests (and
        subclasses) that assign the attribute on an instance still take
        effect.
        """
        if self._min_parallel_nnz is not None:
            return self._min_parallel_nnz
        return self.MIN_FANOUT_RECORDS

    def _bypass(self, site: str, size: int) -> bool:
        """Whether ``size`` records are too few to fan out at ``site``.

        Counts each bypass in ``spmv_parallel_bypass_total`` so the
        silent degradation stays observable.  Callers check this *after*
        the inline/shard-count guards, so a count always means "the pool
        was ready but the input was too small".
        """
        if size >= self.min_parallel_nnz:
            return False
        metric_inc(
            "spmv_parallel_bypass_total",
            labels={"site": site},
            help="Fan-outs skipped by the size-aware dispatch guard",
        )
        return True

    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        self.pool.close()

    #: Fan-out site -> telemetry span-name prefix (task i -> "prefix[i]").
    SPAN_PREFIXES = {
        "stripe": "step1.stripe",
        "merge": "step2.merge.class",
        "inject": "inject.class",
    }

    def _supervised(self, fn, tasks: list, site: str, fallback) -> list:
        """Pool-map ``tasks`` with per-shard sequential degradation.

        Args:
            fn: Task callable handed to the pool.
            tasks: Task list (order defines result order).
            site: Fault-report / injection site label.
            fallback: ``index -> result`` sequential recompute for a
                shard whose retries were exhausted.

        Returns:
            Per-task results, bit-identical to an unsupervised run.

        Raises:
            ShardFailedError: A shard failed in the pool *and* in the
                sequential fallback.
        """
        outcomes = self.pool.map_outcomes(
            fn, tasks, site=site, span_prefix=self.SPAN_PREFIXES.get(site)
        )
        results = []
        for index, outcome in enumerate(outcomes):
            if outcome.ok:
                results.append(outcome.value)
                continue
            record_event(
                site,
                index,
                "fallback",
                detail=f"sequential re-execution after {outcome.error!r}",
                attempts=outcome.attempts,
            )
            try:
                results.append(fallback(index))
            except Exception as exc:
                raise ShardFailedError(
                    f"{site} shard {index} failed after {outcome.attempts} pool "
                    f"attempt(s) ({outcome.error!r}) and the sequential fallback "
                    f"({exc!r})",
                    site=site,
                    index=index,
                ) from exc
        return results

    # ------------------------------------------------------------------
    # Step 1: stripe-level sharding
    # ------------------------------------------------------------------

    def map_stripe_plans(self, stripes: list, segments: list, workspace=None) -> list:
        total = sum(sp.vals.size for sp in stripes)
        if (
            self.pool.inline
            or len(stripes) <= 1
            or self._bypass("stripe", total)
        ):
            # Inline runs on the supervisor thread, so the workspace is
            # safe to reuse; fan-out paths below never share it.
            return super().map_stripe_plans(stripes, segments, workspace=workspace)
        if self.pool.uses_processes:
            return self._map_stripes_processes(stripes, segments)
        tasks = list(zip(stripes, segments))
        return self._supervised(
            lambda t: self._stripe_task(t[0], t[1]),
            tasks,
            site="stripe",
            fallback=lambda i: self._stripe_task(stripes[i], segments[i]),
        )

    def _stripe_task(self, stripe, segment) -> SparseVector:
        return VectorizedBackend.stripe_spmv_plan(self, stripe, segment)

    def _map_stripes_processes(self, stripes: list, segments: list) -> list:
        with ArrayExporter() as exporter:
            payloads = [
                {
                    "cols": exporter.export(sp.cols),
                    "vals": exporter.export(sp.vals),
                    "run_ids": exporter.export(sp.run_ids),
                    "segment": exporter.export(np.ascontiguousarray(seg)),
                    "n_runs": sp.n_runs,
                }
                for sp, seg in zip(stripes, segments)
            ]
            # Fallback recomputes from the parent's pristine arrays, so a
            # corrupted shared-memory payload can only cost time.
            values = self._supervised(
                stripe_values_task,
                payloads,
                site="stripe",
                fallback=lambda i: self._stripe_task(stripes[i], segments[i])[1],
            )
        return [(sp.out_indices, val) for sp, val in zip(stripes, values)]

    def map_stripe_plans_batch(self, stripes: list, segments: list) -> list:
        total = sum(sp.vals.size for sp in stripes)
        if (
            self.pool.inline
            or self.pool.uses_processes  # closures cannot cross processes;
            or len(stripes) <= 1  # the batch kernel is array-wide already
            or self._bypass("stripe", total)
        ):
            return super().map_stripe_plans_batch(stripes, segments)
        tasks = list(zip(stripes, segments))
        return self._supervised(
            lambda t: VectorizedBackend.stripe_spmv_plan_batch(self, t[0], t[1]),
            tasks,
            site="stripe",
            fallback=lambda i: VectorizedBackend.stripe_spmv_plan_batch(
                self, stripes[i], segments[i]
            ),
        )

    # ------------------------------------------------------------------
    # Step 2: run-range merge chunks, residue-class injection
    # ------------------------------------------------------------------

    def merge_accumulate_plan(
        self, symbolic, lists: list, workspace=None
    ) -> np.ndarray:
        """Planned merge, sharded over contiguous run ranges.

        The cheap part -- gathering the concatenated values into merge
        order via the precomputed permutation -- runs supervisor-side;
        the accumulation fans out over ``n_jobs`` chunks whose
        boundaries are aligned to run (merged-key) boundaries, so every
        output key is produced by exactly one worker with the same
        sequential ``bincount`` addition as the serial kernel --
        bit-identical by construction.
        """
        n_shards = self.pool.n_jobs
        if (
            self.pool.inline
            or n_shards <= 1
            or symbolic.n_merged <= 1
            or self._bypass("merge", symbolic.total_records)
        ):
            return super().merge_accumulate_plan(symbolic, lists, workspace=workspace)
        values = [np.asarray(v, dtype=np.float64) for _, v in lists]
        if workspace is not None:
            concat = workspace.buffer("merge.concat", symbolic.total_records)
            np.concatenate(values, out=concat)
            ordered = workspace.buffer("merge.ordered", symbolic.total_records)
            np.take(concat, symbolic.order, out=ordered)
        else:
            ordered = np.concatenate(values)[symbolic.order]
        n_chunks = min(n_shards, symbolic.n_merged)
        # Evenly spaced run boundaries; gaps are >= 1 run, so the record
        # boundaries found below are strictly increasing.
        run_bounds = np.linspace(0, symbolic.n_merged, n_chunks + 1).astype(np.int64)
        rec_bounds = np.searchsorted(symbolic.run_ids, run_bounds, side="left")
        chunks = [
            (int(rec_bounds[i]), int(rec_bounds[i + 1]),
             int(run_bounds[i]), int(run_bounds[i + 1]))
            for i in range(n_chunks)
        ]

        def chunk_values(task) -> np.ndarray:
            rec_lo, rec_hi, run_lo, run_hi = task
            return np.bincount(
                symbolic.run_ids[rec_lo:rec_hi] - run_lo,
                weights=ordered[rec_lo:rec_hi],
                minlength=run_hi - run_lo,
            )

        if self.pool.uses_processes:
            with ArrayExporter() as exporter:
                payloads = [
                    {
                        "run_ids": exporter.export(
                            np.ascontiguousarray(symbolic.run_ids[lo:hi])
                        ),
                        "vals": exporter.export(np.ascontiguousarray(ordered[lo:hi])),
                        "run_lo": run_lo,
                        "n_runs": run_hi - run_lo,
                    }
                    for lo, hi, run_lo, run_hi in chunks
                ]
                outputs = self._supervised(
                    merge_plan_chunk_task,
                    payloads,
                    site="merge",
                    fallback=lambda i: chunk_values(chunks[i]),
                )
        else:
            outputs = self._supervised(
                chunk_values,
                chunks,
                site="merge",
                fallback=lambda i: chunk_values(chunks[i]),
            )
        # Shard accounting happens supervisor-side on the *final* outputs
        # (post-retry, post-fallback), so each chunk counts exactly once
        # and the per-shard counters sum to the global merged-record count
        # even when workers were killed and tasks re-executed.
        for shard_index, vals in enumerate(outputs):
            metric_inc(
                "spmv_merge_shard_records_total",
                int(np.asarray(vals).size),
                labels={"shard": str(shard_index)},
                help="Merged records per residue-class shard",
            )
        return np.concatenate(outputs)

    def inject_classes_plan(self, symbolic, merged_vals, workspace=None) -> list:
        """Planned injection, fanned out per residue class."""
        p = symbolic.p
        if (
            self.pool.inline
            or p <= 1
            or self._bypass(
                "inject", symbolic.n_merged + symbolic.padded // max(p, 1)
            )
        ):
            return super().inject_classes_plan(symbolic, merged_vals, workspace=workspace)

        def inject_sequential(radix: int) -> np.ndarray:
            dense = np.zeros(symbolic.class_keys[radix].size, dtype=np.float64)
            dense[symbolic.class_positions[radix]] = merged_vals[
                symbolic.class_sel[radix]
            ]
            return dense

        if self.pool.uses_processes:
            with ArrayExporter() as exporter:
                payloads = [
                    {
                        "vals": exporter.export(
                            np.ascontiguousarray(merged_vals[symbolic.class_sel[radix]])
                        ),
                        "positions": exporter.export(symbolic.class_positions[radix]),
                        "length": symbolic.class_keys[radix].size,
                    }
                    for radix in range(p)
                ]
                return self._supervised(
                    inject_class_plan_task,
                    payloads,
                    site="inject",
                    fallback=inject_sequential,
                )
        return self._supervised(
            inject_sequential,
            list(range(p)),
            site="inject",
            fallback=inject_sequential,
        )

    # ------------------------------------------------------------------
    # SpGEMM: products fan out over column blocks (site "stripe", the
    # SpGEMM analogue of step-1 stripe sharding) and the merge fans out
    # over contiguous run ranges (site "merge"), both under the same
    # retry -> respawn -> sequential-fallback supervision ladder as
    # SpMV.  Products are elementwise, so block independence is trivial;
    # merge chunks are aligned to run boundaries, so every output cell
    # is accumulated by exactly one worker with bincount's sequential
    # stream-order addition -- bit-identical by construction.
    # ------------------------------------------------------------------

    def spgemm_products(self, splan, b_vals, workspace=None) -> np.ndarray:
        if (
            self.pool.inline
            or splan.n_blocks <= 1
            or self._bypass("stripe", splan.total_records)
        ):
            return super().spgemm_products(splan, b_vals, workspace=workspace)
        bounds = splan.block_starts
        chunks = [
            (int(bounds[i]), int(bounds[i + 1])) for i in range(splan.n_blocks)
        ]

        def chunk_products(task) -> np.ndarray:
            lo, hi = task
            return b_vals[splan.gather_b[lo:hi]] * splan.a_scale[lo:hi]

        if self.pool.uses_processes:
            with ArrayExporter() as exporter:
                b_spec = exporter.export(np.ascontiguousarray(b_vals))
                payloads = [
                    {
                        "gather": exporter.export(
                            np.ascontiguousarray(splan.gather_b[lo:hi])
                        ),
                        "scale": exporter.export(
                            np.ascontiguousarray(splan.a_scale[lo:hi])
                        ),
                        "b_vals": b_spec,
                    }
                    for lo, hi in chunks
                ]
                outputs = self._supervised(
                    spgemm_products_task,
                    payloads,
                    site="stripe",
                    fallback=lambda i: chunk_products(chunks[i]),
                )
        else:
            outputs = self._supervised(
                chunk_products,
                chunks,
                site="stripe",
                fallback=lambda i: chunk_products(chunks[i]),
            )
        for shard_index, vals in enumerate(outputs):
            metric_inc(
                "spgemm_shard_records_total",
                int(np.asarray(vals).size),
                labels={"site": "stripe", "shard": str(shard_index)},
                help="SpGEMM records per supervised shard, by fan-out site",
            )
        return np.concatenate(outputs)

    def spgemm_merge(self, splan, products, workspace=None) -> np.ndarray:
        n_shards = self.pool.n_jobs
        if (
            self.pool.inline
            or n_shards <= 1
            or splan.n_merged <= 1
            or self._bypass("merge", splan.total_records)
        ):
            return super().spgemm_merge(splan, products, workspace=workspace)
        products = np.asarray(products, dtype=np.float64)
        if workspace is not None:
            ordered = workspace.buffer("spgemm.ordered", splan.total_records)
            np.take(products, splan.order, out=ordered)
        else:
            ordered = products[splan.order]
        n_chunks = min(n_shards, splan.n_merged)
        run_bounds = np.linspace(0, splan.n_merged, n_chunks + 1).astype(np.int64)
        rec_bounds = np.searchsorted(splan.run_ids, run_bounds, side="left")
        chunks = [
            (int(rec_bounds[i]), int(rec_bounds[i + 1]),
             int(run_bounds[i]), int(run_bounds[i + 1]))
            for i in range(n_chunks)
        ]

        def chunk_values(task) -> np.ndarray:
            rec_lo, rec_hi, run_lo, run_hi = task
            return np.bincount(
                splan.run_ids[rec_lo:rec_hi] - run_lo,
                weights=ordered[rec_lo:rec_hi],
                minlength=run_hi - run_lo,
            )

        if self.pool.uses_processes:
            with ArrayExporter() as exporter:
                payloads = [
                    {
                        "run_ids": exporter.export(
                            np.ascontiguousarray(splan.run_ids[lo:hi])
                        ),
                        "vals": exporter.export(np.ascontiguousarray(ordered[lo:hi])),
                        "run_lo": run_lo,
                        "n_runs": run_hi - run_lo,
                    }
                    for lo, hi, run_lo, run_hi in chunks
                ]
                outputs = self._supervised(
                    merge_plan_chunk_task,
                    payloads,
                    site="merge",
                    fallback=lambda i: chunk_values(chunks[i]),
                )
        else:
            outputs = self._supervised(
                chunk_values,
                chunks,
                site="merge",
                fallback=lambda i: chunk_values(chunks[i]),
            )
        for shard_index, vals in enumerate(outputs):
            metric_inc(
                "spgemm_shard_records_total",
                int(np.asarray(vals).size),
                labels={"site": "merge", "shard": str(shard_index)},
                help="SpGEMM records per supervised shard, by fan-out site",
            )
        return np.concatenate(outputs)
