"""Failure-injection tests: every layer must *detect* malformed inputs,
not silently corrupt results."""

import numpy as np
import pytest

from repro.compression.vldi import VLDICodec
from repro.core.config import TwoStepConfig
from repro.core.twostep import TwoStepEngine
from repro.formats.coo import COOMatrix
from repro.formats.io import read_binary, read_matrix_market, write_binary
from repro.merge.merge_core import MergeCore, MergeCoreConfig
from repro.merge.prap import PRaPMergeNetwork, PRaPConfig
from repro.merge.store_queue import StoreQueue
from repro.merge.tournament import TournamentTree


class TestCorruptFiles:
    def test_binary_flipped_magic(self, tiny_matrix, tmp_path):
        path = tmp_path / "m.bin"
        write_binary(tiny_matrix, path)
        data = bytearray(path.read_bytes())
        data[0] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError):
            read_binary(path)

    def test_binary_truncated_values(self, small_er_graph, tmp_path):
        path = tmp_path / "g.bin"
        write_binary(small_er_graph, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(ValueError):
            read_binary(path)

    def test_mtx_wrong_entry_count(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n3 3 3\n1 1 1.0\n2 2 2.0\n"
        )
        with pytest.raises(ValueError):
            read_matrix_market(path)

    def test_mtx_garbage_header(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text("not a matrix at all\n1 1 1\n1 1 1.0\n")
        with pytest.raises(ValueError):
            read_matrix_market(path)

    def test_mtx_out_of_range_index_rejected(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n2 2 1\n5 1 1.0\n")
        with pytest.raises(ValueError):
            read_matrix_market(path)


class TestCorruptStreams:
    def test_merge_core_rejects_descending_list(self):
        core = MergeCore(MergeCoreConfig(ways=2))
        with pytest.raises(ValueError):
            core.merge([(np.array([4, 2, 7]), np.ones(3))])

    def test_tournament_rejects_mid_stream_violation(self):
        tree = TournamentTree([[(1, 1.0), (5, 1.0), (3, 1.0)]])
        tree.pop()
        with pytest.raises(ValueError):
            tree.pop()  # pulling 3 after 5 trips the order check

    def test_prap_rejects_key_overflow(self):
        network = PRaPMergeNetwork(PRaPConfig(q=1, core=MergeCoreConfig(ways=2)))
        out = network.merge([(np.array([3]), np.array([1.0]))], 10)
        assert out[3] == 1.0
        from repro.merge.prap import prap_merge_dense

        with pytest.raises(ValueError):
            prap_merge_dense([(np.array([99]), np.array([1.0]))], 10, q=1)

    def test_store_queue_shifted_stream_detected(self):
        """A one-off shift in a core's stream (a dropped injection) must be
        caught, not silently mis-placed."""
        queue = StoreQueue(2)
        queue.push_stream(0, np.array([0, 2, 4]), np.ones(3))
        queue.push_stream(1, np.array([3, 5, 7]), np.ones(3))  # should be 1,3,5
        with pytest.raises(RuntimeError):
            queue.drain()

    def test_vldi_corrupted_continuation_bit(self):
        codec = VLDICodec(block_bits=4)
        bits = codec.encode(np.array([7]))  # single terminating string
        bits = bits.copy()
        bits[0] = 1  # flip termination into continuation
        with pytest.raises(ValueError):
            codec.decode(bits, count=1)

    def test_engine_rejects_non_square_for_its(self):
        from repro.core.its import ITSEngine
        from repro.core.twostep import TwoStepEngine

        rect = COOMatrix.from_triples(3, 4, [0], [1], [1.0])
        engine = ITSEngine(TwoStepEngine(TwoStepConfig(segment_width=2)))
        with pytest.raises(ValueError):
            engine.run_iterations(rect, np.ones(4), 1)


class TestNumericEdgeCases:
    def test_twostep_handles_negative_and_tiny_values(self, rng):
        rows = rng.integers(0, 50, size=200)
        cols = rng.integers(0, 50, size=200)
        vals = np.concatenate([rng.uniform(-1e-12, 1e-12, 100), rng.uniform(-1e6, 1e6, 100)])
        matrix = COOMatrix.from_triples(50, 50, rows, cols, vals)
        engine = TwoStepEngine(TwoStepConfig(segment_width=7, q=2))
        x = rng.uniform(-1, 1, size=50)
        y, _ = engine.run(matrix, x)
        assert np.allclose(y, matrix.spmv(x), rtol=1e-9, atol=1e-6)

    def test_twostep_single_element_matrix(self):
        matrix = COOMatrix.from_triples(1, 1, [0], [0], [2.5])
        engine = TwoStepEngine(TwoStepConfig(segment_width=1, q=0))
        y, report = engine.run(matrix, np.array([2.0]))
        assert y[0] == pytest.approx(5.0)
        assert report.n_stripes == 1

    def test_twostep_empty_matrix(self):
        matrix = COOMatrix(
            8, 8, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), np.empty(0)
        )
        engine = TwoStepEngine(TwoStepConfig(segment_width=3, q=1))
        y, report = engine.run(matrix, np.ones(8))
        assert np.allclose(y, np.zeros(8))
        assert report.intermediate_records == 0

    def test_twostep_dense_column(self, rng):
        """Every row hits column 0: maximal accumulation collisions."""
        n = 64
        matrix = COOMatrix.from_triples(
            n, n, np.arange(n), np.zeros(n, dtype=np.int64), rng.uniform(size=n)
        )
        engine = TwoStepEngine(TwoStepConfig(segment_width=16, q=2))
        x = rng.uniform(size=n)
        y, _ = engine.run(matrix, x)
        assert np.allclose(y, matrix.spmv(x))

    def test_twostep_dense_row(self, rng):
        """One row owns every nonzero: the HDN worst case."""
        n = 64
        matrix = COOMatrix.from_triples(
            n, n, np.zeros(n, dtype=np.int64), np.arange(n), rng.uniform(size=n)
        )
        from repro.filters.hdn import HDNConfig

        engine = TwoStepEngine(
            TwoStepConfig(segment_width=16, q=2, hdn=HDNConfig(degree_threshold=8))
        )
        x = rng.uniform(size=n)
        y, report = engine.run(matrix, x)
        assert np.allclose(y, matrix.spmv(x))
        assert report.step1.hdn_records == n
