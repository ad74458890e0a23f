"""Tests for the Accelerator facade."""

import numpy as np
import pytest

from repro.core.accelerator import Accelerator
from repro.core.design_points import ITS_ASIC, ITS_VC_ASIC, TS_ASIC, TS_FPGA2
from repro.generators.datasets import get_dataset


def test_run_functional(small_er_graph, rng):
    acc = Accelerator(TS_ASIC, simulation_segment_width=300)
    x = rng.uniform(size=small_er_graph.n_cols)
    y, report = acc.run(small_er_graph, x)
    assert np.allclose(y, small_er_graph.spmv(x))
    assert report.n_stripes == -(-small_er_graph.n_cols // 300)


def test_config_inherits_design_point():
    acc = Accelerator(TS_ASIC)
    assert acc.config.q == 4  # 16 cores
    assert acc.config.segment_width == TS_ASIC.segment_elements
    assert acc.config.vldi_vector_block_bits is None
    vc = Accelerator(ITS_VC_ASIC)
    assert vc.config.vldi_vector_block_bits is not None


def test_run_iterative_requires_its(small_er_graph):
    acc = Accelerator(TS_ASIC, simulation_segment_width=300)
    with pytest.raises(ValueError):
        acc.run_iterative(small_er_graph, np.ones(small_er_graph.n_cols), 2)


def test_run_iterative_its(small_er_graph, rng):
    acc = Accelerator(ITS_ASIC, simulation_segment_width=300)
    x0 = rng.uniform(size=small_er_graph.n_cols)
    x, report = acc.run_iterative(small_er_graph, x0, 3)
    ref = x0
    for _ in range(3):
        ref = small_er_graph.spmv(ref)
    assert np.allclose(x, ref)
    assert report.cycle_speedup > 1.0


def test_run_iterative_reuses_the_accelerators_plan(small_er_graph, rng):
    acc = Accelerator(ITS_ASIC, simulation_segment_width=300)
    x0 = rng.uniform(size=small_er_graph.n_cols)
    acc.run(small_er_graph, x0)
    hits = []
    for _ in range(2):
        _, report = acc.run_iterative(small_er_graph, x0, 3)
        assert [it.plan_cache_misses for it in report.per_iteration] == [1, 1, 1]
        hits += [it.plan_cache_hits for it in report.per_iteration]
    assert hits == [1, 2, 3, 4, 5, 6]
    stats = acc.plan_cache_stats
    assert (stats["hits"], stats["misses"], stats["size"]) == (6, 1, 1)


def test_its_engine_takes_an_engine():
    from repro.core.config import TwoStepConfig
    from repro.core.its import ITSEngine

    acc = Accelerator(ITS_ASIC, simulation_segment_width=300)
    assert ITSEngine(acc).config is acc.config
    with pytest.raises(TypeError, match="TwoStepEngine"):
        ITSEngine(TwoStepConfig())


def test_estimate_dataset():
    acc = Accelerator(TS_ASIC)
    spec = get_dataset("TW")
    est = acc.estimate_dataset(spec)
    assert est.gteps > 1.0
    assert est.n_edges == spec.n_edges


def test_supports_capacity():
    acc = Accelerator(TS_FPGA2)
    assert acc.supports(60_000_000)
    assert not acc.supports(70_000_000)
    with pytest.raises(ValueError):
        acc.estimate(70_000_000, 2 * 10**8)


def test_estimate_override_capacity():
    acc = Accelerator(TS_FPGA2)
    est = acc.estimate(70_000_000, 2 * 10**8, check_capacity=False)
    assert est.gteps > 0
