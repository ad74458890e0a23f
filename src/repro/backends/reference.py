"""Record-at-a-time oracle backend.

Every kernel processes one record per "cycle", mirroring the observable
behaviour of the hardware datapath: the step-1 adder chain emits one
accumulated record per row run, the merge core replays a tournament tree
dequeue-by-dequeue, the missing-key checker walks the residue class one
expected key at a time, and VLDI accounting sizes one delta at a time.
This is deliberately slow -- it is the ground truth the vectorized
backend is differentially tested against, and the software analogue of
the cycle-level simulators under :mod:`repro.simulator`.
"""

from __future__ import annotations

import numpy as np

from repro.backends.base import ExecutionBackend, SparseVector
from repro.compression.vldi import stream_encoded_bits
from repro.merge.tournament import merge_accumulate_streaming


class ReferenceBackend(ExecutionBackend):
    """Loop-based kernels; the bit-exact oracle for all other backends."""

    name = "reference"

    def stripe_spmv(
        self,
        rows: np.ndarray,
        cols: np.ndarray,
        vals: np.ndarray,
        x_segment: np.ndarray,
    ) -> SparseVector:
        segment = [float(v) for v in x_segment]
        out_idx: list[int] = []
        out_val: list[float] = []
        for row, col, val in zip(rows.tolist(), cols.tolist(), vals.tolist()):
            product = float(val) * segment[col]
            if out_idx and out_idx[-1] == row:
                out_val[-1] += product  # adder chain: same-row run continues
            else:
                out_idx.append(row)
                out_val.append(0.0 + product)  # sums start at +0.0
        return (
            np.asarray(out_idx, dtype=np.int64),
            np.asarray(out_val, dtype=np.float64),
        )

    def merge_accumulate(self, lists: list[SparseVector]) -> SparseVector:
        return merge_accumulate_streaming(lists)

    def inject_missing_keys(
        self,
        keys: np.ndarray,
        vals: np.ndarray,
        dense_range: tuple[int, int],
        stride: int = 1,
        offset: int = 0,
    ) -> SparseVector:
        lo, hi = dense_range
        if stride <= 0:
            raise ValueError("stride must be positive")
        key_list = np.asarray(keys, dtype=np.int64).tolist()
        val_list = np.asarray(vals, dtype=np.float64).tolist()
        for key in key_list:
            if (key - offset) % stride != 0:
                raise ValueError("core emitted a key outside its residue class")
        first = lo + ((offset - lo) % stride)
        dense_keys: list[int] = []
        dense_vals: list[float] = []
        head = 0
        for expected in range(first, hi, stride):
            if head < len(key_list) and key_list[head] == expected:
                value = val_list[head]
                head += 1
            else:
                value = 0.0  # missing key: inject a zero record
            dense_keys.append(expected)
            dense_vals.append(value)
        if head != len(key_list):
            raise ValueError("core emitted a key outside the dense range")
        return (
            np.asarray(dense_keys, dtype=np.int64),
            np.asarray(dense_vals, dtype=np.float64),
        )

    def scatter_dense(
        self, indices: np.ndarray, values: np.ndarray, n_out: int
    ) -> np.ndarray:
        out = np.zeros(n_out, dtype=np.float64)
        for key, val in zip(indices.tolist(), values.tolist()):
            out[key] = val
        return out

    def vldi_stream_bits(self, deltas: np.ndarray, block_bits: int) -> int:
        return stream_encoded_bits(deltas, block_bits)
