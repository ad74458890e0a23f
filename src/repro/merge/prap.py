"""PRaP -- Parallelization by Radix Pre-sorter (paper section 4.2).

``p = 2**q`` merge cores each own the records whose key's ``q`` least
significant bits equal the core's radix.  Incoming DRAM words (p records
per cycle) pass through a stable bitonic pre-sorter on the radix and land
in per-radix slots of the *shared* prefetch buffer, so on-chip buffering is
``K x dpage`` independent of ``p`` -- the property that makes PRaP scale
where partitioning (section 4.1) cannot.

Each core emits a monotone, *dense* stream over its residue class thanks to
missing-key injection, and a plain store queue interleaves the ``p``
streams into consecutive elements of the dense output vector.

Two granularities are provided:

* :func:`prap_merge_dense` -- functional model of the merge, re-deriving
  the merge permutation on every call; its merge/injection/scatter
  kernels are supplied by an execution backend (:mod:`repro.backends`),
  bit-exact output either way.  With ``check_interleave=True`` the
  ``p`` injected class streams go through a real :class:`StoreQueue`.
  The engine replays the same merge from a plan's cached structure
  (:func:`prap_merge_dense_plan`) and scatters the merged keys
  directly; tests hold that replay to this function's store-queue
  assembly, byte for byte.
* :class:`PRaPMergeNetwork` -- record-level simulation threading every
  record through the bitonic pre-sorter, per-radix buffer slots, per-core
  tournament merge, missing-key injection and the store queue; used by the
  tests to prove the full pipeline (including stability) correct.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.merge.bitonic import stable_radix_sort
from repro.merge.merge_core import MergeCoreConfig, inject_missing_keys
from repro.merge.store_queue import StoreQueue
from repro.merge.tournament import TournamentTree
from repro.telemetry.session import metric_inc, span


def radix_of(keys: np.ndarray, q: int) -> np.ndarray:
    """The pre-sort radix: ``q`` least significant bits of each key."""
    if q < 0:
        raise ValueError("q must be non-negative")
    return np.asarray(keys, dtype=np.int64) & ((1 << q) - 1)


@dataclass(frozen=True)
class PRaPConfig:
    """Parameters of a PRaP merge network.

    Attributes:
        q: Radix bits; the network instantiates ``p = 2**q`` cores.
        core: Per-core merge-core configuration (ways = K input lists).
        dpage_bytes: DRAM page size backing one prefetch-buffer slot.
    """

    q: int
    core: MergeCoreConfig
    dpage_bytes: int = 2048

    def __post_init__(self) -> None:
        if self.q < 0:
            raise ValueError("q must be non-negative")
        if self.dpage_bytes <= 0:
            raise ValueError("dpage_bytes must be positive")

    @property
    def n_cores(self) -> int:
        """p = 2**q parallel merge cores."""
        return 1 << self.q

    @property
    def prefetch_buffer_bytes(self) -> int:
        """Shared prefetch buffer: K x dpage, independent of p."""
        return self.core.ways * self.dpage_bytes

    @property
    def peak_bandwidth(self) -> float:
        """Aggregate output bandwidth: p records per cycle."""
        return self.n_cores * self.core.peak_bandwidth

    def records_per_cycle(self) -> int:
        """Steady-state output width (one record per core per cycle)."""
        return self.n_cores


def prap_merge_dense(
    lists: list,
    n_out: int,
    q: int,
    check_interleave: bool = True,
    backend=None,
) -> np.ndarray:
    """Merge sorted sparse vectors into a dense output via the PRaP scheme.

    Functionally: per radix ``r``, merge-and-accumulate the records with
    ``key % p == r`` from all lists, inject missing keys with value 0, and
    interleave the ``p`` dense streams.

    Args:
        lists: ``(indices, values)`` pairs, each sorted by index.
        n_out: Dense output length (the result-vector dimension).
        q: Radix bits (``p = 2**q`` cores).
        check_interleave: When True, route the final assembly through a
            :class:`StoreQueue` so the dense-position invariant is checked;
            when False, assemble directly (faster).
        backend: Optional :class:`~repro.backends.ExecutionBackend` (or
            registry name) providing the merge/injection/scatter kernels;
            None resolves the package default.

    Returns:
        Dense ``float64`` vector of length ``n_out``.
    """
    from repro.backends import resolve_backend  # deferred: avoids import cycle

    backend = resolve_backend(backend)
    p = 1 << q
    with span("step2.merge", n_lists=len(lists)):
        merged_idx, merged_val = backend.merge_accumulate(lists)
    metric_inc(
        "spmv_records_merged_total",
        int(merged_idx.size),
        help="Records emitted by the K-way merge",
    )
    if merged_idx.size and (merged_idx.min() < 0 or merged_idx.max() >= n_out):
        raise ValueError("record key outside output vector range")
    if not check_interleave:
        return backend.scatter_dense(merged_idx, merged_val, n_out)
    # The residue classes have unequal lengths when p does not divide n_out;
    # pad the short streams with records beyond n_out so the store queue can
    # drain in full cycles, then truncate.
    padded = -(-n_out // p) * p
    queue = StoreQueue(p)
    with span("inject", p=p):
        for radix, (keys, vals) in enumerate(
            backend.inject_classes(merged_idx, merged_val, padded, p)
        ):
            queue.push_stream(radix, keys, vals)
    metric_inc(
        "spmv_keys_injected_total",
        int(padded - merged_idx.size),
        help="Zero-value records injected for missing keys",
    )
    return queue.drain()[:n_out]


def prap_merge_dense_plan(symbolic, lists: list, backend=None) -> np.ndarray:
    """Fused :func:`prap_merge_dense` against precomputed structure.

    The merge permutation and scatter map come from the plan's
    :class:`~repro.core.plan.Step2Symbolic`; only the value datapath
    runs here (merge, then a direct scatter of the merged keys), so a
    warm iteration performs no argsort.  Outputs are bit-identical to
    :func:`prap_merge_dense` with or without its store-queue assembly:
    the store queue only reorders where each merged value is written.

    Args:
        symbolic: Precomputed step-2 structure for this matrix and ``p``.
        lists: ``(indices, values)`` pairs in stripe order -- the order
            the symbolic permutation was derived from.
        backend: Optional execution backend; None resolves the default.

    Returns:
        Dense ``float64`` vector of length ``symbolic.n_out``.
    """
    from repro.backends import resolve_backend  # deferred: avoids import cycle

    backend = resolve_backend(backend)
    with span("step2.merge", n_lists=len(lists)):
        merged_val = backend.merge_accumulate_plan(symbolic, lists)
    metric_inc(
        "spmv_records_merged_total",
        int(symbolic.n_merged),
        help="Records emitted by the K-way merge",
    )
    return backend.scatter_dense_plan(symbolic, merged_val)


def prap_merge_dense_plan_batch(
    symbolic, lists: list, k: int, backend=None
) -> np.ndarray:
    """Multi-RHS :func:`prap_merge_dense_plan`: values are ``(n, k)``.

    Column ``j`` of the output is bit-identical to
    :func:`prap_merge_dense_plan` (and :func:`prap_merge_dense`) on the
    matching scalar lists.

    Args:
        symbolic: Precomputed step-2 structure for this matrix and ``p``.
        lists: ``(indices, values)`` pairs with ``(n, k)`` value blocks.
        k: Batch width.
        backend: Optional execution backend; None resolves the default.

    Returns:
        Dense ``float64`` array of shape ``(symbolic.n_out, k)``.
    """
    from repro.backends import resolve_backend  # deferred: avoids import cycle

    backend = resolve_backend(backend)
    with span("step2.merge", n_lists=len(lists), batch=k):
        merged_val = backend.merge_accumulate_plan_batch(symbolic, lists, k)
    metric_inc(
        "spmv_records_merged_total",
        int(symbolic.n_merged),
        help="Records emitted by the K-way merge",
    )
    out = np.zeros((symbolic.n_out, k), dtype=np.float64)
    out[symbolic.merged_keys, :] = merged_val
    return out


class PRaPMergeNetwork:
    """Record-level PRaP simulation (pre-sorter + cores + store queue).

    Input records are streamed in batches of ``p`` per "DRAM cycle", passed
    through the stable bitonic pre-sorter on their radix, appended to the
    per-list per-radix prefetch slots, merged per core by a tournament
    tree with root accumulation, dense-injected, and interleaved by the
    store queue.  Statistics cover pre-sorter batches and per-core loads
    (the load imbalance that missing-key injection hides, section 4.2.2).
    """

    def __init__(self, config: PRaPConfig):
        self.config = config
        self.presort_batches = 0
        self.core_input_records = np.zeros(config.n_cores, dtype=np.int64)

    def merge(self, lists: list, n_out: int) -> np.ndarray:
        """Run the full record-level pipeline.

        Args:
            lists: ``(indices, values)`` pairs, each sorted by index; at
                most ``core.ways`` lists.
            n_out: Dense output vector length.

        Returns:
            Dense ``float64`` result of length ``n_out``.
        """
        cfg = self.config
        p = cfg.n_cores
        if len(lists) > cfg.core.ways:
            raise ValueError(f"network is configured for {cfg.core.ways} lists, got {len(lists)}")
        # Per-list, per-radix slots of the shared prefetch buffer.
        slots = [[[] for _ in range(p)] for _ in lists]
        for li, (idx, val) in enumerate(lists):
            idx = np.asarray(idx, dtype=np.int64)
            val = np.asarray(val, dtype=np.float64)
            if np.any(idx[1:] < idx[:-1]):
                raise ValueError(f"list {li} is not sorted")
            # Stream the list p records per batch through the pre-sorter.
            for lo in range(0, idx.size, p):
                batch_keys = idx[lo : lo + p]
                batch_vals = val[lo : lo + p]
                width = batch_keys.size
                if width == p:
                    perm = stable_radix_sort(radix_of(batch_keys, cfg.q))
                    batch_keys = batch_keys[perm]
                    batch_vals = batch_vals[perm]
                    self.presort_batches += 1
                for key, value in zip(batch_keys.tolist(), batch_vals.tolist()):
                    slots[li][int(key) & (p - 1)].append((key, value))
        # Each core merges its radix slot of every list.
        padded = -(-n_out // p) * p
        queue = StoreQueue(p)
        for radix in range(p):
            sources = [slots[li][radix] for li in range(len(lists))]
            self.core_input_records[radix] = sum(len(s) for s in sources)
            tree = TournamentTree(sources)
            keys, vals = tree.drain_accumulated()
            keys, vals = inject_missing_keys(keys, vals, (0, padded), stride=p, offset=radix)
            queue.push_stream(radix, keys, vals)
        return queue.drain()[:n_out]

    def load_imbalance(self) -> float:
        """Max/mean ratio of per-core input records (1.0 = perfectly even)."""
        mean = self.core_input_records.mean()
        return float(self.core_input_records.max() / mean) if mean else 1.0
