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

The position loop stops at a position ``T`` that the layout fixes at
build time (:func:`loop_positions`).  The few runs longer than ``T`` --
the hub rows of a power-law stripe -- are then finished one run at a
time: their remaining records are gathered in one batch, each run's
accumulator row is added onto its first remaining record, and
``np.add.reduce(rows, axis=0)`` folds the rest.  On a C-contiguous
``(m, k)`` block with ``k >= 2`` that reduce adds the rows one after
another for each column, so every column is still the sequential
stream-order sum.  With ``k == 1`` the block is one contiguous 1-D
reduction, which NumPy sums *pairwise*, so one column takes
``np.add.accumulate(rows, axis=0)[-1]`` instead.

``T`` minimises ``T + 2 * counts[T]``: ``T`` position steps plus about
two steps' worth of calls per run longer than ``T``; a layout where the
tail saves nothing (uniform-degree stripes, whose longest run is a few
records) keeps every position in the loop.  The Python-level loop thus
runs ``T + counts[T]`` steps -- about 235 instead of 1,431 on an RMAT-15
stripe -- never once per column or per distinct run length.  The
positions below ``T`` are stored back-to-back and each long run's
remaining records follow run after run, so every step reads one
contiguous slice of the record map.

Two further fusions keep the batch path from re-materializing
full-size intermediates per call:

* The record map can be composed with an arbitrary stream permutation
  at build time (``order=``), so the merge kernel reads the *unsorted*
  concatenated value block directly -- the sorted stream is never
  materialized.
* :func:`mul_segment_sum_batch` folds the step-1 gather-multiply
  (``vals[:, None] * np.take(segments, cols, axis=0)``) into the
  position loop and the tail, reading ``cols`` and ``vals`` already
  permuted into the layout's record order at plan time, so the full
  ``(nnz, k)`` product block is never materialized and no index
  composition happens per call.

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
        positions: ``T``, the run positions the kernels' loop visits
            (:func:`loop_positions`); the first ``counts[T]`` runs
            (none when ``T == counts.size``) are finished run by run.
        tail: Stream offsets of the long runs' remaining records,
            ``counts[T] + 1`` entries: run ``j``'s records ``T`` onward
            occupy ``tail[j]:tail[j+1]``; ``tail[0]`` is where the
            positions below ``T`` end and ``tail[-1]`` is
            ``total_records``.
        rec: Record map, length ``total_records``:
            ``rec[off_i:off_i + counts[i]]`` (``off_i = counts[:i].sum()``)
            holds, for each run active at position ``i < T``, the index
            of its record ``i`` in the *source* value stream (already
            composed with the stream permutation, if any); the tail
            slices follow, in run order.  ``None`` when the owner
            stores its streams already in this order.
    """

    n_runs: int
    total_records: int
    runs: np.ndarray
    counts: np.ndarray
    positions: int
    tail: np.ndarray
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


def loop_positions(counts: np.ndarray) -> int:
    """Run positions the position loop should visit, from the layout alone.

    A loop step costs a few NumPy calls whatever the number of active
    runs, and finishing a run past the loop costs about two steps'
    worth, so ``T`` minimises ``T + 2 * counts[T]`` (``T ==
    counts.size`` costs ``counts.size``: no tail).  A tie goes to the
    longer loop, so a tail that saves nothing is never built.  The loop
    seeds the accumulator, so ``T`` is at least 1 on a non-empty stream.

    Args:
        counts: The layout's active-run counts per position.

    Returns:
        ``T`` in ``[min(1, counts.size), counts.size]``.
    """
    steps = np.arange(counts.size + 1, dtype=np.int64)
    steps[:-1] += 2 * counts
    steps[0] = steps[-1]
    # argmin takes the first minimum; reading backwards makes it the last.
    return int(counts.size - np.argmin(steps[::-1]))


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
    first = starts[runs]
    positions = loop_positions(counts)
    head = counts[:positions]
    n_long = int(counts[positions]) if positions < max_len else 0
    tail = np.empty(n_long + 1, dtype=np.int64)
    tail[0] = head.sum()
    np.cumsum(lengths[runs[:n_long]] - positions, out=tail[1:])
    tail[1:] += tail[0]
    # Position i < T lists, for the first counts[i] runs, the record at
    # offset i from each run's start.  In-place steps keep the build's
    # temporaries to two stream-length arrays.
    offsets = np.zeros(positions, dtype=np.int64)
    np.cumsum(head[:-1], out=offsets[1:])
    rec = np.repeat(offsets, head)
    np.subtract(np.arange(rec.size, dtype=np.int64), rec, out=rec)
    rec = first[rec]
    rec += np.repeat(np.arange(positions, dtype=np.int64), head)
    if n_long:
        # Then each long run's records T onward, run after run: slot e
        # of run j's slice holds record first[j] + T + (e - tail[j]).
        rest = np.arange(tail[0], total, dtype=np.int64)
        rest += np.repeat(first[:n_long] + positions - tail[:-1], np.diff(tail))
        rec = np.concatenate((rec, rest))
    if order is not None:
        rec = np.asarray(order)[rec]
    return RunLayout(
        n_runs=int(lengths.size),
        total_records=total,
        runs=runs,
        counts=counts,
        positions=positions,
        tail=tail,
        rec=rec,
    )


def _finish_long_runs(acc: np.ndarray, rows: np.ndarray, tail: list) -> None:
    """Add each long run's remaining records onto its accumulator row.

    ``rows`` holds the runs' remaining records, run ``j``'s at
    ``rows[tail[j]:tail[j+1]]`` (offsets relative to ``rows``), and is
    overwritten.  Each run's accumulator is added onto its first
    remaining record, then the rows are folded in order.  With two or
    more columns ``np.add.reduce(axis=0)`` over the C-contiguous rows is
    that sequential fold; one column is a contiguous 1-D reduction,
    which NumPy sums pairwise, so it takes ``np.add.accumulate``.
    """
    one_column = rows.shape[1] == 1
    for j, (lo, hi) in enumerate(zip(tail[:-1], tail[1:])):
        run = rows[lo:hi]
        np.add(acc[j], run[0], out=run[0])
        if one_column:
            acc[j] = np.add.accumulate(run, axis=0)[-1]
        else:
            np.add.reduce(run, axis=0, out=acc[j])


def _accumulator(k: int, layout: RunLayout) -> tuple:
    """One block for the accumulator rows and the long runs' records.

    Returns ``(acc, rows)``, views of a single ``(n, k)`` allocation:
    one accumulator row per run, then one row per record past the loop.
    Sharing it keeps the tail from adding an allocation per call.  The
    kernels fill both with ``np.take(..., out=, mode="clip")``: the
    layout's indices are in range by construction, and ``"clip"`` lets
    ``take`` write into the views without an intermediate copy.
    """
    n_acc = int(layout.counts[0])
    block = np.empty((n_acc + layout.total_records - int(layout.tail[0]), k))
    return block[:n_acc], block[n_acc:]


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
    counts = layout.counts[: layout.positions].tolist()
    if not counts:
        return out
    rec = layout.rec
    acc, rows = _accumulator(values.shape[1], layout)
    off = counts[0]
    np.take(values, rec[:off], axis=0, out=acc, mode="clip")
    for c in counts[1:]:
        acc[:c] += np.take(values, rec[off : off + c], axis=0)
        off += c
    tail = (layout.tail - off).tolist()
    if len(tail) > 1:
        np.take(values, rec[off:], axis=0, out=rows, mode="clip")
        _finish_long_runs(acc, rows, tail)
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
    and the position loop and the run-by-run tail replay it exactly).

    Args:
        segments: Dense operand block, shape ``(segment_width, k)``.
        cols: Per-record column index into ``segments``, in the
            layout's record order (``stream_cols[layout.rec]``).
        vals: Per-record matrix value, in the same order as ``cols``.
        layout: Position-major layout of the record stream.

    Returns:
        Accumulated products, shape ``(n_runs, k)``.
    """
    out = np.zeros((layout.n_runs, segments.shape[1]), dtype=np.float64)
    counts = layout.counts[: layout.positions].tolist()
    if not counts:
        return out
    acc, rows = _accumulator(segments.shape[1], layout)
    off = counts[0]
    np.take(segments, cols[:off], axis=0, out=acc, mode="clip")
    acc *= vals[:off, None]
    for c in counts[1:]:
        step = np.take(segments, cols[off : off + c], axis=0)
        step *= vals[off : off + c, None]
        acc[:c] += step
        off += c
    tail = (layout.tail - off).tolist()
    if len(tail) > 1:
        np.take(segments, cols[off:], axis=0, out=rows, mode="clip")
        rows *= vals[off:, None]
        _finish_long_runs(acc, rows, tail)
    acc += 0.0
    out[layout.runs] = acc
    return out


__all__ = [
    "RunLayout",
    "build_run_layout",
    "loop_positions",
    "mul_segment_sum_batch",
    "segment_sum_batch",
]
