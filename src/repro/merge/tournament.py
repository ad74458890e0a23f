"""Software multi-way merge with accumulation.

Step 2 of Two-Step SpMV merges ``n`` intermediate sparse vectors -- sorted
lists of ``(key, value)`` records -- into the dense result, *accumulating*
values that share a key (multiple stripes contributing to the same output
row).  Two implementations are provided:

* :func:`merge_accumulate` -- vectorized numpy merge used by the
  ``vectorized`` execution backend (fast path; semantically a K-way merge).
* :class:`TournamentTree` -- a true streaming K-way loser-tree merger that
  dequeues one record at a time, mirroring the hardware Merge Core's
  observable behaviour; used by the cycle models, the ``reference``
  execution backend (via :func:`merge_accumulate_streaming`) and for
  cross-validation.

Both merge paths accumulate equal-key records in list order, one addition
at a time, so their outputs are bit-identical -- the invariant the
backend differential tests rely on.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.telemetry.session import metric_inc


def merge_accumulate(lists: list) -> tuple:
    """Merge sorted sparse vectors, accumulating duplicate keys.

    Args:
        lists: Sequence of ``(indices, values)`` pairs; each ``indices``
            array must be strictly increasing.

    Returns:
        ``(indices, values)`` of the merged sparse vector, indices strictly
        increasing, values summed per key.
    """
    non_empty = [(np.asarray(i, dtype=np.int64), np.asarray(v, dtype=np.float64)) for i, v in lists]
    non_empty = [(i, v) for i, v in non_empty if i.size]
    if not non_empty:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    all_idx = np.concatenate([i for i, _ in non_empty])
    all_val = np.concatenate([v for _, v in non_empty])
    # Counted so the fused (symbolic) path can assert that steady-state
    # iterations perform no per-call argsort at all.
    metric_inc(
        "spmv_step2_argsort_total",
        labels={"site": "merge"},
        help="Stable argsorts on the step-2 numeric path",
    )
    order = np.argsort(all_idx, kind="stable")
    all_idx, all_val = all_idx[order], all_val[order]
    new_run = np.empty(all_idx.size, dtype=bool)
    new_run[0] = True
    new_run[1:] = all_idx[1:] != all_idx[:-1]
    run_ids = np.cumsum(new_run) - 1
    # bincount adds weights sequentially in stream order, matching the
    # tournament tree's one-record-at-a-time accumulation bit for bit.
    summed = np.bincount(run_ids, weights=all_val)
    return all_idx[new_run], summed


def merge_accumulate_streaming(lists: list) -> tuple:
    """Record-at-a-time K-way merge with accumulation (oracle kernel).

    Replays every record through a :class:`TournamentTree`, exactly as the
    hardware merge core dequeues them; equal keys are summed at the root
    in source order.  Semantically identical to :func:`merge_accumulate`
    and used as its bit-exact oracle by the ``reference`` backend.

    Args:
        lists: Sequence of ``(indices, values)`` pairs; each ``indices``
            array must be strictly increasing.

    Returns:
        ``(indices, values)`` of the merged sparse vector.
    """
    sources = []
    for idx, val in lists:
        idx = np.asarray(idx, dtype=np.int64)
        val = np.asarray(val, dtype=np.float64)
        sources.append(zip(idx.tolist(), val.tolist()))
    return TournamentTree(sources).drain_accumulated()


class TournamentTree:
    """Streaming K-way merger over sorted record sources.

    Records are ``(key, value)`` tuples.  ``pop`` returns the globally
    smallest record among all list heads; accumulation across lists is the
    caller's job (the hardware accumulates at the root, which
    :meth:`pop_accumulated` models).

    The implementation uses a binary heap, which is the software analogue
    of the hardware loser tree: both perform ``O(log K)`` comparisons per
    dequeued record.
    """

    def __init__(self, sources: list):
        """
        Args:
            sources: Sequence of iterables yielding ``(key, value)`` records
                in non-decreasing key order.
        """
        self._iters = [iter(s) for s in sources]
        self._heap = []
        self.comparisons = 0
        for idx, it in enumerate(self._iters):
            first = next(it, None)
            if first is not None:
                # Tie-break on source index for deterministic, stable order.
                heapq.heappush(self._heap, (first[0], idx, first[1]))

    def __bool__(self) -> bool:
        return bool(self._heap)

    def peek_key(self):
        """Key of the next record, or None when drained."""
        return self._heap[0][0] if self._heap else None

    def pop(self):
        """Dequeue the smallest record as ``(key, value)``.

        Raises:
            IndexError: When the tree is drained.
        """
        if not self._heap:
            raise IndexError("tournament tree is empty")
        key, src, val = heapq.heappop(self._heap)
        self.comparisons += max(1, int(np.log2(max(len(self._iters), 2))))
        nxt = next(self._iters[src], None)
        if nxt is not None:
            if nxt[0] < key:
                raise ValueError(f"source {src} is not sorted: {nxt[0]} after {key}")
            heapq.heappush(self._heap, (nxt[0], src, nxt[1]))
        return key, val

    def pop_accumulated(self):
        """Dequeue all records sharing the smallest key, summed.

        Models the root accumulator of the hardware merge core, which
        coalesces equal-key records into a single output record.

        Returns:
            ``(key, accumulated_value)``.
        """
        key, total = self.pop()
        while self._heap and self._heap[0][0] == key:
            _, val = self.pop()
            total += val
        total = 0.0 + total  # sums start at +0.0, as with bincount
        return key, total

    def drain_accumulated(self) -> tuple:
        """Fully drain into ``(indices, values)`` arrays (test helper)."""
        keys, vals = [], []
        while self._heap:
            k, v = self.pop_accumulated()
            keys.append(k)
            vals.append(v)
        return np.asarray(keys, dtype=np.int64), np.asarray(vals, dtype=np.float64)
