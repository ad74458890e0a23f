"""Order-preserving batched segment sums over contiguous runs.

The engine's bit-identity contract pins the accumulation order: every
multi-RHS kernel must produce, per column, exactly the floating-point
sum ``np.bincount`` produces on that column alone -- sequential,
left-associated addition in stream order.  A naive batch kernel
therefore loops ``bincount`` per column and gains nothing from the
batch; re-associating reductions (``np.add.reduceat``, matmul-style
segment sums) are faster but use pairwise summation, which changes the
rounding and breaks bit-identity.

The order-preserving batch form exploits that accumulation runs are
*contiguous* in every stream the engine sums (step-1 records are
row-major sorted; the merge stream is key-sorted by the symbolic
permutation).  The *position-major* layout sorts the runs by length,
longest first (stably), so at run position ``i`` the runs that still
have a record are exactly a prefix ``[:counts[i]]``.  The kernel seeds
one accumulator row per run from its first record, then adds position
``i`` of every still-active run with one ``k``-wide vectorized add::

    acc = np.take(values, rec[:counts[0]], axis=0)    # record 0 of each run
    acc[:counts[1]] += np.take(values, rec[...], axis=0)  # record 1, in order
    ...                                      # left-associated, as bincount

Each column of each run sees precisely the additions ``bincount`` would
perform, in the same order and association.  ``bincount`` starts every
run from ``+0.0`` while the kernel starts from the first record; that
differs only for a run whose records are all ``-0.0``, so the kernel
adds ``+0.0`` once at the end, which turns ``-0.0`` into ``+0.0`` and
leaves every other value's bits alone.  The result is bit-identical,
signed zeros included; only a ``nan``'s sign and payload may differ,
since they follow the adder's operand order.

The Python-level loop runs once per run *position* -- the maximum run
length, a few hundred steps on power-law stripes -- not once per run,
per column or per distinct run length; the positions are stored
back-to-back, so step ``i`` reads one contiguous slice of the record
map.

Two further fusions keep the batch path from re-materializing
full-size intermediates per call:

* The record map can be composed with an arbitrary stream permutation
  at build time (``order=``), so the merge kernel reads the *unsorted*
  concatenated value block directly -- the sorted stream is never
  materialized.
* :func:`mul_segment_sum_batch` folds the step-1 gather-multiply
  (``vals[:, None] * np.take(segments, cols, axis=0)``) into the
  position loop, reading ``cols`` and ``vals`` already permuted into
  position-major order at plan time, so the full ``(nnz, k)`` product
  block is never materialized and no index composition happens per
  call.

Every row gather is ``np.take(..., axis=0)`` rather than fancy
indexing (``values[idx]``): same rows, same bytes, less per-call work.

The index-side work (sorting runs by length, building the record map)
is done once per plan with whole-array operations -- one stable sort
of the run lengths, then ``repeat``/``cumsum`` over the stream -- and
shared by every column of every batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RunLayout:
    """Position-major layout of contiguous accumulation runs.

    Attributes:
        n_runs: Number of output runs (rows of the accumulated result).
        total_records: Records across all runs (length of the stream).
        runs: Output row of each non-empty run, longest run first
            (ties keep ascending run order); accumulator row ``j``
            belongs to run ``runs[j]``.
        counts: ``counts[i]`` is the number of runs longer than ``i``
            -- the active prefix at run position ``i``; non-increasing,
            one entry per position up to the longest run.
        rec: Position-major record map, length ``total_records``:
            ``rec[off_i:off_i + counts[i]]`` (``off_i = counts[:i].sum()``)
            holds, for each active run, the index of its record ``i``
            in the *source* value stream (already composed with the
            stream permutation, if any).  ``None`` when the owner
            stores its streams already in position-major order.
    """

    n_runs: int
    total_records: int
    runs: np.ndarray
    counts: np.ndarray
    rec: np.ndarray | None

    @property
    def groups(self) -> tuple:
        """The index arrays a kernel reads, for byte accounting.

        ``((runs, rec),)``, or ``((runs, counts),)`` without a record map.
        """
        return ((self.runs, self.counts if self.rec is None else self.rec),)


def run_boundaries(keys: np.ndarray) -> tuple:
    """Run structure of a sorted key stream: equal adjacent keys form a run.

    Args:
        keys: Key stream in which equal keys are adjacent (row-major
            stripe rows, or a stably sorted merge stream).

    Returns:
        ``(new_run, run_ids, run_starts)``: the mask of records that
        start a run, the ``int64`` run id of every record, and the
        ``int64`` CSR-style run offsets of length ``n_runs + 1`` that
        :func:`build_run_layout` takes.
    """
    n = keys.size
    # A True past the end closes the last run (and is the only entry of
    # an empty stream), so the offsets come out of one flatnonzero.
    bounds = np.empty(n + 1, dtype=bool)
    bounds[0] = True
    bounds[1:n] = keys[1:] != keys[:-1]
    bounds[n] = True
    new_run = bounds[:n]
    run_ids = np.cumsum(new_run, dtype=np.int64)
    run_ids -= 1
    run_starts = np.flatnonzero(bounds).astype(np.int64, copy=False)
    return new_run, run_ids, run_starts


def build_run_layout(
    run_starts: np.ndarray, order: np.ndarray | None = None
) -> RunLayout:
    """Derive the position-major layout of a contiguous run stream.

    Args:
        run_starts: CSR-style run offsets, length ``n_runs + 1``: the
            records of run ``r`` occupy sorted stream positions
            ``run_starts[r]:run_starts[r+1]``.  Equal offsets denote
            empty runs (``bincount``'s ``minlength`` semantics).
        order: Optional permutation that sorts the source stream into
            run order (``sorted = source[order]``).  When given, the
            record map is composed with it so kernels can read the
            unsorted source directly.

    Returns:
        The immutable :class:`RunLayout`.
    """
    run_starts = np.asarray(run_starts, dtype=np.int64)
    starts = run_starts[:-1]
    lengths = np.diff(run_starts)
    total = int(run_starts[-1])
    histogram = np.bincount(lengths)
    counts = lengths.size - np.cumsum(histogram)[:-1]
    # Stable descending sort by length; the narrowest key dtype lets
    # NumPy radix-sort it.  Empty runs sort last and are dropped (their
    # output rows stay 0.0, as with minlength).
    max_len = counts.size
    key = (max_len - lengths).astype(np.min_scalar_type(max_len))
    by_length = np.argsort(key, kind="stable")
    runs = by_length[: counts[0]] if counts.size else by_length[:0]
    # Position i's block lists, for the first counts[i] runs, the
    # record at offset i from each run's start.  In-place steps keep
    # the build's temporaries to two stream-length arrays.
    offsets = np.zeros(counts.size, dtype=np.int64)
    np.cumsum(counts[:-1], out=offsets[1:])
    rec = np.repeat(offsets, counts)
    np.subtract(np.arange(total, dtype=np.int64), rec, out=rec)
    rec = starts[runs][rec]
    rec += np.repeat(np.arange(counts.size, dtype=np.int64), counts)
    if order is not None:
        rec = np.asarray(order)[rec]
    return RunLayout(
        n_runs=int(lengths.size),
        total_records=total,
        runs=runs,
        counts=counts,
        rec=rec,
    )


def segment_sum_batch(values: np.ndarray, layout: RunLayout) -> np.ndarray:
    """Accumulate an ``(n, k)`` stream into ``(n_runs, k)``, bincount-order.

    Args:
        values: Source value block of shape
            ``(layout.total_records, k)``, in the stream order the
            record map was built against (unsorted, if ``order`` was
            composed in at build time).
        layout: The stream's precomputed position-major layout.

    Returns:
        Accumulated values of shape ``(n_runs, k)``; column ``j`` is
        bit-identical to ``np.bincount(run_ids, weights=sorted[:, j],
        minlength=n_runs)`` (empty runs are 0.0, as with ``minlength``).
    """
    out = np.zeros((layout.n_runs, values.shape[1]), dtype=np.float64)
    counts = layout.counts.tolist()
    if not counts:
        return out
    rec = layout.rec
    off = counts[0]
    acc = np.take(values, rec[:off], axis=0)
    for c in counts[1:]:
        acc[:c] += np.take(values, rec[off : off + c], axis=0)
        off += c
    acc += 0.0
    out[layout.runs] = acc
    return out


def mul_segment_sum_batch(
    segments: np.ndarray,
    cols: np.ndarray,
    vals: np.ndarray,
    layout: RunLayout,
) -> np.ndarray:
    """Fused step-1 batch kernel: gather, multiply and accumulate.

    Computes, without materializing the ``(nnz, k)`` product block, the
    per-run sums of ``vals[:, None] * segments[cols, :]`` -- each
    column bit-identical to the scalar gather/multiply/bincount path
    (multiplication is elementwise, so only the addition order matters,
    and the position loop replays it exactly).

    Args:
        segments: Dense operand block, shape ``(segment_width, k)``.
        cols: Per-record column index into ``segments``, in the
            layout's position-major order (``stream_cols[layout.rec]``).
        vals: Per-record matrix value, position-major like ``cols``.
        layout: Position-major layout of the record stream.

    Returns:
        Accumulated products, shape ``(n_runs, k)``.
    """
    out = np.zeros((layout.n_runs, segments.shape[1]), dtype=np.float64)
    counts = layout.counts.tolist()
    if not counts:
        return out
    off = counts[0]
    acc = np.take(segments, cols[:off], axis=0)
    acc *= vals[:off, None]
    for c in counts[1:]:
        step = np.take(segments, cols[off : off + c], axis=0)
        step *= vals[off : off + c, None]
        acc[:c] += step
        off += c
    acc += 0.0
    out[layout.runs] = acc
    return out


__all__ = [
    "RunLayout",
    "build_run_layout",
    "mul_segment_sum_batch",
    "segment_sum_batch",
]
