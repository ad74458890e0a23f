"""Backfill unit tests for :mod:`repro.core.autotune`.

The structural-decision tests live in ``test_autotune_mesh_power.py``;
these pin the measurement helper and the report surface itself:
:func:`~repro.core.step1.sample_intermediate_deltas` (the structure-only
delta sample) and the :class:`AutotuneReport` field contract.
"""

import dataclasses
from unittest import mock

import numpy as np
import pytest

from repro.analysis.matrix_stats import compute_stats
from repro.compression.delta import delta_encode
from repro.core.autotune import AutotuneReport, autotune
from repro.core.config import TwoStepConfig
from repro.core.design_points import TS_ASIC, TS_FPGA2
from repro.core.step1 import sample_intermediate_deltas
from repro.formats.blocking import column_blocks
from repro.formats.coo import COOMatrix
from repro.generators.erdos_renyi import erdos_renyi_graph
from repro.generators.rmat import rmat_graph


class TestSampleIntermediateDeltas:
    def test_deltas_are_int64_and_first_per_stripe_nonnegative(self):
        graph = erdos_renyi_graph(600, 4.0, seed=1)
        deltas = sample_intermediate_deltas(graph, segment_width=128)
        assert deltas.dtype == np.int64
        assert deltas.size > 0
        # Delta streams encode sorted unique indices: every gap positive,
        # every stripe's leading absolute index non-negative.
        assert deltas.min() >= 0

    def test_empty_matrix_yields_empty_sample(self):
        empty = COOMatrix(
            10, 10, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), np.empty(0)
        )
        deltas = sample_intermediate_deltas(empty, segment_width=4)
        assert deltas.size == 0
        assert deltas.dtype == np.int64

    def test_max_stripes_caps_the_sample(self):
        graph = erdos_renyi_graph(400, 4.0, seed=2)
        assert len(column_blocks(graph, 32)) > 4
        capped = sample_intermediate_deltas(graph, segment_width=32, max_stripes=2)
        full = sample_intermediate_deltas(graph, segment_width=32, max_stripes=10**6)
        assert 0 < capped.size < full.size

    def test_max_records_caps_the_sample(self):
        graph = erdos_renyi_graph(400, 4.0, seed=10)
        full = sample_intermediate_deltas(graph, segment_width=32)
        capped = sample_intermediate_deltas(graph, segment_width=32, max_records=50)
        assert capped.size <= 50
        assert 0 < capped.size < full.size
        # The cap truncates the stream, never rewrites its prefix.
        assert np.array_equal(capped, full[: capped.size])

    def test_max_records_zero_yields_empty(self):
        graph = erdos_renyi_graph(100, 3.0, seed=11)
        deltas = sample_intermediate_deltas(graph, segment_width=16, max_records=0)
        assert deltas.size == 0
        assert deltas.dtype == np.int64

    @pytest.mark.parametrize(
        ("max_stripes", "max_records"),
        [(4, None), (None, None), (0, None), (30, None), (None, 300), (4, 1)],
    )
    def test_cuts_only_the_stripes_it_reads(self, max_stripes, max_records):
        graph = rmat_graph(9, 4.0, seed=4)
        width = 40
        # The sample as a split of every stripe computes it: each
        # stripe's intermediate indices are its distinct rows.
        chunks, sampled, read = [], 0, 0
        for block in column_blocks(graph, width)[:max_stripes]:
            if max_records is not None and sampled >= max_records:
                break
            read += 1
            indices = np.unique(block.matrix.rows)
            if max_records is not None:
                indices = indices[: max_records - sampled]
            if indices.size:
                chunks.append(delta_encode(indices))
                sampled += indices.size
        want = np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)
        cut = mock.patch.object(
            COOMatrix, "select_columns", autospec=True,
            side_effect=COOMatrix.select_columns,
        )
        with cut as select:
            deltas = sample_intermediate_deltas(graph, width, max_stripes, max_records)
        assert deltas.dtype == np.int64
        assert deltas.tobytes() == want.tobytes()
        assert select.call_count == read

    def test_single_stripe_equals_unique_rows(self):
        graph = erdos_renyi_graph(200, 3.0, seed=3)
        # One stripe spanning every column: the intermediate indices are
        # exactly the nonzero rows, so the sampled stream must round-trip
        # through the delta codec to them.
        from repro.compression.delta import delta_decode

        deltas = sample_intermediate_deltas(graph, segment_width=graph.n_cols)
        assert np.array_equal(delta_decode(deltas), np.unique(graph.rows))


class TestAutotuneReport:
    def test_report_fields_are_mutually_consistent(self):
        graph = rmat_graph(9, 6.0, seed=4)
        report = autotune(graph, segment_width=256)
        assert isinstance(report, AutotuneReport)
        assert isinstance(report.config, TwoStepConfig)
        assert report.config.segment_width == 256
        assert report.sampled_deltas >= 0
        assert report.vldi_block_bits == (report.config.vldi_vector_block_bits or 0)
        assert report.hdn_enabled == (report.config.hdn is not None)
        assert report.stats.nnz == graph.nnz

    def test_report_is_frozen(self):
        graph = erdos_renyi_graph(100, 3.0, seed=5)
        report = autotune(graph, segment_width=64)
        with pytest.raises(dataclasses.FrozenInstanceError):
            report.sampled_deltas = 0

    def test_stats_match_direct_computation(self):
        graph = erdos_renyi_graph(300, 4.0, seed=6)
        report = autotune(graph, segment_width=128)
        direct = compute_stats(graph)
        assert report.stats.nnz == direct.nnz
        assert report.stats.degree_skew == direct.degree_skew

    def test_q_follows_design_point(self):
        graph = erdos_renyi_graph(150, 3.0, seed=7)
        for point in (TS_ASIC, TS_FPGA2):
            report = autotune(graph, point=point, segment_width=64)
            assert report.config.q == int(np.log2(point.n_merge_cores))
            assert report.config.step1_pipelines == point.step1_pipelines

    def test_default_width_clamps_to_matrix(self):
        graph = erdos_renyi_graph(120, 3.0, seed=8)
        report = autotune(graph)
        assert report.config.segment_width == min(
            TS_ASIC.segment_elements, graph.n_cols
        )

    def test_disabled_vldi_samples_nothing(self):
        graph = erdos_renyi_graph(200, 3.0, seed=9)
        report = autotune(graph, segment_width=100, enable_vldi=False)
        assert report.sampled_deltas == 0
        assert report.vldi_block_bits == 0
        assert report.config.vldi_vector_block_bits is None

    def test_segment_width_beyond_columns_is_rejected(self):
        from repro.faults.errors import ConfigurationError

        graph = erdos_renyi_graph(120, 3.0, seed=12)
        with pytest.raises(ConfigurationError, match="exceeds the matrix"):
            autotune(graph, segment_width=graph.n_cols + 1)

    def test_segment_width_at_column_count_is_accepted(self):
        graph = erdos_renyi_graph(120, 3.0, seed=13)
        report = autotune(graph, segment_width=graph.n_cols)
        assert report.config.segment_width == graph.n_cols
