"""Tests for the step-1 executor and both steps' statistics models."""

import numpy as np
import pytest

from repro.core.config import TwoStepConfig
from repro.core.step1 import Step1Engine, Step1Stats
from repro.core.step2 import merge_stats
from repro.core.twostep import TwoStepEngine
from repro.filters.hdn import HDNConfig, HDNDetector
from repro.formats.blocking import column_blocks
from repro.generators.rmat import rmat_graph
from repro.merge.prap import prap_merge_dense
from repro.simulator.step2_sim import Step2CycleSim, Step2SimConfig
from tests.conftest import plan_free_step1


def config(**kw):
    defaults = dict(segment_width=256, q=2)
    defaults.update(kw)
    return TwoStepConfig(**defaults)


def test_step1_stripe_output_sorted_strict(small_er_graph, rng):
    engine = Step1Engine(config())
    x = rng.uniform(size=small_er_graph.n_cols)
    for block in column_blocks(small_er_graph, 256):
        iv = engine.run_stripe(block, x[block.col_lo : block.col_hi])
        assert np.all(np.diff(iv.indices) > 0)


def test_step1_stripe_matches_partial_spmv(small_er_graph, rng):
    engine = Step1Engine(config())
    x = rng.uniform(size=small_er_graph.n_cols)
    block = column_blocks(small_er_graph, 256)[1]
    iv = engine.run_stripe(block, x[block.col_lo : block.col_hi])
    dense = np.zeros(small_er_graph.n_rows)
    dense[iv.indices] = iv.values
    assert np.allclose(dense, block.matrix.spmv(x[block.col_lo : block.col_hi]))


def test_step1_accumulates_within_rows():
    """Multiple nonzeros of a row inside one stripe emit one record."""
    from repro.formats.coo import COOMatrix

    m = COOMatrix.from_triples(4, 4, [2, 2, 2], [0, 1, 2], [1.0, 2.0, 3.0])
    engine = Step1Engine(config(segment_width=4))
    block = column_blocks(m, 4)[0]
    iv = engine.run_stripe(block, np.ones(4))
    assert iv.indices.tolist() == [2]
    assert iv.values.tolist() == [6.0]


def test_step1_stats_accumulate(small_er_graph, rng):
    engine = Step1Engine(config())
    stats = Step1Stats()
    x = rng.uniform(size=small_er_graph.n_cols)
    for block in column_blocks(small_er_graph, 256):
        engine.run_stripe(block, x[block.col_lo : block.col_hi], stats=stats)
    assert stats.multiplies == small_er_graph.nnz
    assert stats.gathers == small_er_graph.nnz
    assert stats.output_records <= small_er_graph.nnz
    assert stats.cycles > 0
    assert len(stats.per_stripe_nnz) == len(column_blocks(small_er_graph, 256))


def test_step1_segment_shape_validated(small_er_graph):
    engine = Step1Engine(config())
    block = column_blocks(small_er_graph, 256)[0]
    with pytest.raises(ValueError):
        engine.run_stripe(block, np.zeros(10))


def test_step1_hdn_dispatch_counts():
    graph = rmat_graph(10, 16.0, seed=3)
    degrees = graph.row_degrees()
    threshold = int(np.quantile(degrees[degrees > 0], 0.99))
    detector = HDNDetector(degrees, HDNConfig(degree_threshold=threshold))
    engine = Step1Engine(config(segment_width=1024))
    stats = Step1Stats()
    for block in column_blocks(graph, 1024):
        engine.run_stripe(block, np.ones(block.width), detector, stats)
    assert stats.hdn_records + stats.general_records == graph.nnz
    if detector.n_hdns:
        assert stats.hdn_records > 0
    # False positives are possible but must be a small minority.
    assert stats.hdn_false_positive_records <= stats.hdn_records


def test_step1_hdn_pipeline_reduces_cycles():
    """Dispatching HDNs avoids the general accumulator hazard."""
    graph = rmat_graph(11, 16.0, seed=4)
    degrees = graph.row_degrees()
    detector = HDNDetector(degrees, HDNConfig(degree_threshold=64))
    cfg = config(segment_width=graph.n_cols)
    blocks = column_blocks(graph, graph.n_cols)
    with_stats, without_stats = Step1Stats(), Step1Stats()
    engine = Step1Engine(cfg)
    for block in blocks:
        engine.run_stripe(block, np.ones(block.width), detector, with_stats)
        engine.run_stripe(block, np.ones(block.width), None, without_stats)
    assert with_stats.cycles <= without_stats.cycles


def test_step1_cycles_pin_the_accumulator_hazard():
    """P records per cycle times the 32-bank conflict factor, plus three
    cycles / P per record of a row run longer than the 8-deep adder chain;
    HDN dispatch removes the hazard.  The plan's template agrees."""
    from repro.formats.coo import COOMatrix

    lengths = [20, 3, 8, 9]
    rows = np.repeat(np.arange(4), lengths)
    cols = np.concatenate([np.arange(n) for n in lengths])
    m = COOMatrix.from_triples(5, 32, rows, cols, np.ones(rows.size))
    cfg = config(segment_width=32)  # P = 8 pipelines
    base = 40 / 8 * (1 + 7 / 32)
    expected = base + (20 + 9) * 3.0 / 8
    block = column_blocks(m, 32)[0]
    stats = Step1Stats()
    Step1Engine(cfg).run_stripe(block, np.ones(32), stats=stats)
    assert stats.cycles == expected
    assert stats.output_records == 4
    assert TwoStepEngine(cfg).plan(m).step1_stats() == stats
    detector = HDNDetector(m.row_degrees(), HDNConfig(degree_threshold=8))
    dispatched = Step1Stats()
    Step1Engine(cfg).run_stripe(block, np.ones(32), detector, dispatched)
    assert dispatched.cycles == base


def test_step2_merges_to_dense(small_er_graph, rng):
    cfg = config()
    x = rng.uniform(size=small_er_graph.n_cols)
    lists = plan_free_step1(cfg, small_er_graph, x)
    out = prap_merge_dense(lists, small_er_graph.n_rows, cfg.q)
    assert np.allclose(out, small_er_graph.spmv(x))


def test_step2_adds_y(small_er_graph, rng):
    """The engine adds ``y`` to the merged stream, byte for byte."""
    cfg = config()
    x = rng.uniform(size=small_er_graph.n_cols)
    y = rng.uniform(size=small_er_graph.n_rows)
    lists = plan_free_step1(cfg, small_er_graph, x)
    merged = prap_merge_dense(lists, small_er_graph.n_rows, cfg.q)
    out = TwoStepEngine(cfg).run(small_er_graph, x, y=y).y
    assert out.tobytes() == (merged + y).tobytes()
    assert np.allclose(out, small_er_graph.spmv(x, y))


def test_step2_stats(small_er_graph, rng):
    cfg = config(q=3)
    x = rng.uniform(size=small_er_graph.n_cols)
    indices = [idx for idx, _ in plan_free_step1(cfg, small_er_graph, x)]
    n = small_er_graph.n_rows
    stats = merge_stats(indices, n, cfg.n_cores)
    assert stats.output_records == n
    assert stats.input_records == sum(idx.size for idx in indices)
    assert stats.injected_records == n - np.count_nonzero(
        np.isin(np.arange(n), np.concatenate(indices))
    )
    assert stats.n_lists == len(indices)
    # p records per cycle at best.
    assert stats.cycles == max(n, stats.input_records) / 8
    # The engine's plan carries the same statistics.
    assert TwoStepEngine(cfg).plan(small_er_graph).step2_stats() == stats


def test_step2_cycle_estimate_vs_clocked_simulator(rng):
    """The analytic step-2 cycles track the clocked simulator."""
    n_out = 4096
    lists = []
    for i in range(6):
        size = int(rng.integers(400, 900))
        idx = np.sort(rng.choice(n_out, size=size, replace=False)).astype(np.int64)
        lists.append((idx, rng.uniform(size=size)))
    cfg = TwoStepConfig(segment_width=1024, q=2)
    stats = merge_stats([idx for idx, _ in lists], n_out, cfg.n_cores)
    clocked = Step2CycleSim(Step2SimConfig(q=2)).run(lists, n_out)
    ratio = clocked.cycles / stats.cycles
    assert 0.8 < ratio < 1.5
