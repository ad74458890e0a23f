"""Tests for the step-1 kernels, step 1's structure-only intermediate
deltas, and both steps' statistics models."""

import numpy as np
import pytest

from repro.backends import resolve_backend
from repro.compression.delta import delta_encode
from repro.core.config import TwoStepConfig
from repro.core.segsum import run_boundaries
from repro.core.step1 import Step1Stats, account_stripe, sample_intermediate_deltas
from repro.core.step2 import merge_stats
from repro.core.twostep import TwoStepEngine
from repro.filters.hdn import HDNConfig, HDNDetector
from repro.formats.blocking import column_blocks
from repro.formats.coo import COOMatrix
from repro.generators.erdos_renyi import erdos_renyi_graph
from repro.generators.rmat import rmat_graph
from repro.merge.prap import prap_merge_dense
from repro.simulator.step2_sim import Step2CycleSim, Step2SimConfig
from tests.conftest import plan_free_step1

BACKENDS = ["reference", "vectorized"]


def config(**kw):
    defaults = dict(segment_width=256, q=2)
    defaults.update(kw)
    return TwoStepConfig(**defaults)


def stripe_spmv(backend, block, x):
    """One stripe through a backend's raw-array step-1 kernel."""
    stripe = block.matrix
    return resolve_backend(backend).stripe_spmv(
        stripe.rows, stripe.cols, stripe.vals, x[block.col_lo : block.col_hi]
    )


def step1_stats(matrix, width, detector=None, pipelines=8):
    """``account_stripe`` over every stripe of ``width`` columns."""
    stats = Step1Stats()
    for block in column_blocks(matrix, width):
        rows = block.matrix.rows
        account_stripe(stats, rows, run_boundaries(rows)[2], pipelines, detector)
    return stats


@pytest.mark.parametrize("backend", BACKENDS)
def test_step1_stripe_output_sorted_strict(small_er_graph, rng, backend):
    x = rng.uniform(size=small_er_graph.n_cols)
    for block in column_blocks(small_er_graph, 256):
        indices, _ = stripe_spmv(backend, block, x)
        assert np.all(np.diff(indices) > 0)


@pytest.mark.parametrize("backend", BACKENDS)
def test_step1_stripe_matches_partial_spmv(small_er_graph, rng, backend):
    x = rng.uniform(size=small_er_graph.n_cols)
    block = column_blocks(small_er_graph, 256)[1]
    indices, values = stripe_spmv(backend, block, x)
    dense = np.zeros(small_er_graph.n_rows)
    dense[indices] = values
    assert np.allclose(dense, block.matrix.spmv(x[block.col_lo : block.col_hi]))


@pytest.mark.parametrize("backend", BACKENDS)
def test_step1_accumulates_within_rows(backend):
    """Multiple nonzeros of a row inside one stripe emit one record."""
    m = COOMatrix.from_triples(4, 4, [2, 2, 2], [0, 1, 2], [1.0, 2.0, 3.0])
    indices, values = stripe_spmv(backend, column_blocks(m, 4)[0], np.ones(4))
    assert indices.tolist() == [2]
    assert values.tolist() == [6.0]


def test_step1_stats_accumulate(small_er_graph):
    stats = step1_stats(small_er_graph, 256)
    assert stats.multiplies == small_er_graph.nnz
    assert stats.gathers == small_er_graph.nnz
    assert stats.output_records <= small_er_graph.nnz
    assert stats.cycles > 0
    assert len(stats.per_stripe_nnz) == len(column_blocks(small_er_graph, 256))
    # One record per row run: the kernel's output length, stripe by stripe.
    x = np.ones(small_er_graph.n_cols)
    assert stats.per_stripe_nnz == [
        stripe_spmv("reference", block, x)[0].size
        for block in column_blocks(small_er_graph, 256)
    ]


def test_step1_hdn_dispatch_counts():
    graph = rmat_graph(10, 16.0, seed=3)
    degrees = graph.row_degrees()
    threshold = int(np.quantile(degrees[degrees > 0], 0.99))
    detector = HDNDetector(degrees, HDNConfig(degree_threshold=threshold))
    stats = step1_stats(graph, 1024, detector)
    assert stats.hdn_records + stats.general_records == graph.nnz
    if detector.n_hdns:
        assert stats.hdn_records > 0
    # False positives are possible but must be a small minority.
    assert stats.hdn_false_positive_records <= stats.hdn_records


def test_step1_hdn_pipeline_reduces_cycles():
    """Dispatching HDNs avoids the general accumulator hazard."""
    graph = rmat_graph(11, 16.0, seed=4)
    detector = HDNDetector(graph.row_degrees(), HDNConfig(degree_threshold=64))
    with_stats = step1_stats(graph, graph.n_cols, detector)
    without_stats = step1_stats(graph, graph.n_cols)
    assert with_stats.cycles <= without_stats.cycles


def test_step1_cycles_pin_the_accumulator_hazard():
    """P records per cycle times the 32-bank conflict factor, plus three
    cycles / P per record of a row run longer than the 8-deep adder chain;
    HDN dispatch removes the hazard.  The plan's template agrees."""
    lengths = [20, 3, 8, 9]
    rows = np.repeat(np.arange(4), lengths)
    cols = np.concatenate([np.arange(n) for n in lengths])
    m = COOMatrix.from_triples(5, 32, rows, cols, np.ones(rows.size))
    cfg = config(segment_width=32)  # P = 8 pipelines
    base = 40 / 8 * (1 + 7 / 32)
    expected = base + (20 + 9) * 3.0 / 8
    stats = step1_stats(m, 32, pipelines=cfg.step1_pipelines)
    assert stats.cycles == expected
    assert stats.output_records == 4
    assert TwoStepEngine(cfg).plan(m).step1_stats() == stats
    detector = HDNDetector(m.row_degrees(), HDNConfig(degree_threshold=8))
    dispatched = step1_stats(m, 32, detector, pipelines=cfg.step1_pipelines)
    assert dispatched.cycles == base


#: ``(matrix, stripe width)`` for the delta-function oracle.
DELTA_CASES = {
    "er": lambda: (erdos_renyi_graph(500, 3.0, seed=21), 64),
    "rmat": lambda: (rmat_graph(9, 4.0, seed=22), 64),
    # Columns 2-5 hold no nonzero: stripes 1 and 2 are empty.
    "empty-stripe": lambda: (
        COOMatrix.from_triples(6, 8, [0, 0, 3, 5], [0, 6, 1, 7], np.ones(4)), 2
    ),
    "n1": lambda: (COOMatrix.from_triples(1, 1, [0], [0], [2.0]), 1),
    "single-nonzero": lambda: (COOMatrix.from_triples(50, 50, [37], [12], [1.0]), 8),
}


@pytest.mark.parametrize("case", sorted(DELTA_CASES))
def test_intermediate_deltas_are_the_kernel_indices(case):
    """The structure-only deltas equal the delta codes of the reference
    step-1 kernel's output indices, stripe by stripe, under either cap."""
    matrix, width = DELTA_CASES[case]()
    x = np.ones(matrix.n_cols)
    per_stripe = [
        delta_encode(stripe_spmv("reference", block, x)[0])
        for block in column_blocks(matrix, width)
    ]
    full = np.concatenate(per_stripe)

    def leading(k):
        return np.concatenate([np.empty(0, dtype=np.int64), *per_stripe[:k]])

    deltas = sample_intermediate_deltas(matrix, width, max_stripes=None)
    assert deltas.dtype == np.int64
    assert deltas.tobytes() == full.tobytes()
    for k in sorted({0, 1, 2, len(per_stripe)}):
        capped = sample_intermediate_deltas(matrix, width, max_stripes=k)
        assert capped.tobytes() == leading(k).tobytes(), k
    for cap in sorted({0, 1, full.size // 2, full.size, full.size + 5}):
        capped = sample_intermediate_deltas(matrix, width, max_stripes=None, max_records=cap)
        assert capped.tobytes() == full[:cap].tobytes(), cap


def test_intermediate_deltas_pinned():
    """Values as the numeric step-1 pass produced them."""
    er = sample_intermediate_deltas(erdos_renyi_graph(400, 3.0, seed=5), 100, max_stripes=None)
    assert (er.size, int(er.sum())) == (842, 1599)
    assert er[:12].tolist() == [1, 1, 1, 3, 1, 1, 1, 1, 3, 1, 2, 2]
    rmat = sample_intermediate_deltas(rmat_graph(8, 4.0, seed=5), 64)
    assert (rmat.size, int(rmat.sum())) == (324, 931)
    assert rmat[:12].tolist() == [1, 1, 1, 1, 1, 1, 1, 2, 1, 1, 1, 1]


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
