"""Top-level task functions executed by the process pool.

``ProcessPoolExecutor`` can only run module-level callables, so every
process-pool task of the ``parallel`` backend lives here.  Payloads are
plain dicts of :class:`~repro.parallel.shm.ArraySpec` descriptors plus
scalars; each worker attaches the shared-memory views, runs the same
vectorized kernel the in-process backends use (bit-identity is the
contract), copies its -- much smaller -- result out, and releases the
views before returning.
"""

from __future__ import annotations

import numpy as np

from repro.parallel.shm import ArraySpec, import_array


def _attach(payload: dict, names: tuple) -> tuple:
    arrays, handles = [], []
    for name in names:
        spec: ArraySpec = payload[name]
        array, handle = import_array(spec)
        arrays.append(array)
        if handle is not None:
            handles.append(handle)
    return arrays, handles


def _release(handles: list) -> None:
    for handle in handles:
        handle.close()


def stripe_values_task(payload: dict) -> np.ndarray:
    """Step-1 stripe kernel: accumulated run values for one stripe.

    The output *indices* are structure-only and already known to the
    parent from the execution plan, so only the value array crosses the
    process boundary back.

    Payload keys: ``cols``, ``vals``, ``run_ids``, ``segment``
    (:class:`ArraySpec` each) and ``n_runs`` (int).
    """
    (cols, vals, run_ids, segment), handles = _attach(
        payload, ("cols", "vals", "run_ids", "segment")
    )
    try:
        if vals.size == 0:
            return np.empty(0, dtype=np.float64)
        products = vals * segment[cols]
        # bincount adds weights sequentially in stream order: bit-identical
        # to the sequential backends' accumulation.
        return np.bincount(run_ids, weights=products, minlength=payload["n_runs"])
    finally:
        _release(handles)


def merge_plan_chunk_task(payload: dict) -> np.ndarray:
    """Planned step-2 merge: accumulate one contiguous run-range chunk.

    The parent gathered the values into merge order via the precomputed
    permutation; this task bincounts its record slice against its
    (rebased) run ids -- the same sequential stream-order addition as
    the serial kernel, so the concatenated chunk outputs are
    bit-identical to an unsharded merge.

    Payload keys: ``run_ids``, ``vals`` (:class:`ArraySpec`),
    ``run_lo``, ``n_runs`` (ints).
    """
    (run_ids, vals), handles = _attach(payload, ("run_ids", "vals"))
    try:
        if vals.size == 0:
            return np.zeros(payload["n_runs"], dtype=np.float64)
        return np.bincount(
            run_ids - payload["run_lo"], weights=vals, minlength=payload["n_runs"]
        )
    finally:
        _release(handles)


def spgemm_products_task(payload: dict) -> np.ndarray:
    """SpGEMM partial products for one column block's record range.

    Products are elementwise (``b_vals[gather] * scale``), so block
    shards are trivially independent; the merge-order accumulation
    happens supervisor-side (or in :func:`merge_plan_chunk_task`).

    Payload keys: ``gather``, ``scale``, ``b_vals`` (:class:`ArraySpec`
    each); ``b_vals`` is shared by every block's payload.
    """
    (gather, scale, b_vals), handles = _attach(
        payload, ("gather", "scale", "b_vals")
    )
    try:
        if gather.size == 0:
            return np.empty(0, dtype=np.float64)
        return b_vals[gather] * scale
    finally:
        _release(handles)


def inject_class_plan_task(payload: dict) -> np.ndarray:
    """Planned missing-key injection for one residue class.

    The dense in-class scatter positions are precomputed, so the task is
    a pure zeros + fancy-assign over the class's values.

    Payload keys: ``vals``, ``positions`` (:class:`ArraySpec`),
    ``length`` (int).
    """
    (vals, positions), handles = _attach(payload, ("vals", "positions"))
    try:
        dense = np.zeros(payload["length"], dtype=np.float64)
        dense[positions] = vals
        return dense
    finally:
        _release(handles)
