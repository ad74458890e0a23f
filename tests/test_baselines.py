"""Tests for the latency-bound baseline and platform models."""

import pytest

from repro.baselines.cpu_model import XEON_E5_MKL, XEON_PHI_5110
from repro.baselines.custom_hw import BM1_ASIC, CUSTOM_BENCHMARKS, reported_gteps
from repro.baselines.gpu_model import TESLA_M2050_CLUSTER
from repro.baselines.latency_bound import (
    estimate_latency_bound,
    latency_bound_traffic,
    simulate_latency_bound,
)
from repro.core.design_points import TS_ASIC
from repro.core.perf import estimate_performance, twostep_traffic
from repro.memory.cache import CacheConfig
from repro.memory.dram import DDR4_DUAL_SOCKET


def test_latency_bound_traffic_has_wastage():
    ledger = latency_bound_traffic(10**9, 3 * 10**9, cache_bytes=30 << 20, line_bytes=64)
    assert ledger.cache_line_wastage_bytes > 0
    # 60 of every 64 fetched bytes are waste for 4 B elements.
    misses = ledger.notes["x_gather_misses"]
    assert ledger.cache_line_wastage_bytes == pytest.approx(misses * 60)


def test_latency_bound_traffic_small_problem_no_misses():
    ledger = latency_bound_traffic(1000, 5000, cache_bytes=30 << 20, line_bytes=64)
    assert ledger.notes["miss_rate"] == 0.0
    assert ledger.cache_line_wastage_bytes == 0.0


def test_fig4_shape_twostep_beats_latency_bound():
    """Fig. 4: on a 1B-node degree-3 graph, Two-Step moves more payload but
    less total traffic than latency-bound SpMV."""
    n, nnz = 10**9, 3 * 10**9
    lb = latency_bound_traffic(n, nnz, cache_bytes=30 << 20, line_bytes=64)
    ts = twostep_traffic(n, nnz, TS_ASIC)
    assert ts.payload_bytes > lb.payload_bytes  # the intermediate round trip
    assert ts.total_bytes < lb.total_bytes  # no cache-line wastage
    assert ts.cache_line_wastage_bytes == 0


def test_simulated_latency_bound_matches_analytic(small_er_graph):
    cache = CacheConfig(capacity_bytes=1 << 12, line_bytes=64, associativity=4)
    measured = simulate_latency_bound(small_er_graph, cache)
    analytic = latency_bound_traffic(
        small_er_graph.n_rows, small_er_graph.nnz, cache_bytes=1 << 12, line_bytes=64
    )
    assert measured.notes["miss_rate"] == pytest.approx(
        analytic.notes["miss_rate"], abs=0.25
    )
    assert measured.matrix_bytes == analytic.matrix_bytes


def test_estimate_latency_bound_gteps():
    est = estimate_latency_bound(10**8, 3 * 10**8, DDR4_DUAL_SOCKET, 30 << 20)
    assert est.gteps > 0
    assert est.runtime_s > 0


def test_compute_cap_limits_small_problems():
    capped = estimate_latency_bound(
        10**5, 10**6, DDR4_DUAL_SOCKET, 30 << 20, compute_edge_rate=1e8
    )
    uncapped = estimate_latency_bound(10**5, 10**6, DDR4_DUAL_SOCKET, 30 << 20)
    assert capped.gteps < uncapped.gteps


def test_cpu_platform_dimension_limits():
    """The paper could not run >70M nodes on Xeon E5 or >30M on the Phi."""
    assert XEON_E5_MKL.supports(70e6)
    assert not XEON_E5_MKL.supports(71e6)
    assert XEON_PHI_5110.supports(30e6)
    assert not XEON_PHI_5110.supports(31e6)


def test_cpu_estimate_degrades_with_dimension():
    """Fig. 21 shape: CPU GTEPS falls once x spills the LLC."""
    small = XEON_E5_MKL.estimate(int(4e6), int(16e6))
    large = XEON_E5_MKL.estimate(int(60e6), int(180e6))
    assert large.gteps < small.gteps / 3


def test_proposed_beats_cpu_by_paper_margins():
    """Fig. 21: 16x-800x GTEPS improvement across Table 6 graphs."""
    from repro.generators.datasets import CPU_GRAPHS

    ratios = []
    for spec in CPU_GRAPHS:
        if not XEON_E5_MKL.supports(spec.n_nodes):
            continue
        cpu = XEON_E5_MKL.estimate(spec.n_nodes, spec.n_edges)
        asic = estimate_performance(TS_ASIC, spec.n_nodes, spec.n_edges)
        ratios.append(asic.gteps / cpu.gteps)
    assert min(ratios) > 5
    assert max(ratios) > 100
    assert max(ratios) < 1000


def test_proposed_beats_cpu_energy_by_orders_of_magnitude():
    """Fig. 21(b): two to three orders of magnitude energy improvement."""
    spec_n, spec_e = int(16e6), int(24e6)
    cpu = XEON_E5_MKL.estimate(spec_n, spec_e)
    asic = estimate_performance(TS_ASIC, spec_n, spec_e)
    ratio = cpu.nj_per_edge / asic.nj_per_edge
    assert 100 < ratio < 10_000


def test_gpu_estimate_in_paper_band():
    """Fig. 19: 22x-100x GTEPS, 150x-1000x+ energy vs the GPU cluster."""
    from repro.generators.datasets import GPU_GRAPHS
    from repro.core.design_points import ITS_VC_ASIC

    for spec in GPU_GRAPHS:
        gpu = TESLA_M2050_CLUSTER.estimate(spec.n_nodes, spec.n_edges)
        best = estimate_performance(ITS_VC_ASIC, spec.n_nodes, spec.n_edges)
        assert 10 < best.gteps / gpu.gteps < 150
        assert 100 < gpu.nj_per_edge / best.nj_per_edge < 2000


def test_phi_faster_than_cpu_on_bandwidth_bound_graphs():
    est_cpu = XEON_E5_MKL.estimate(int(16e6), int(24e6))
    est_phi = XEON_PHI_5110.estimate(int(16e6), int(24e6))
    assert est_phi.gteps > est_cpu.gteps


def test_custom_benchmark_lookup():
    bench_id, gteps = reported_gteps("FR")
    assert bench_id == "BM1_ASIC"
    assert gteps == BM1_ASIC.gteps["FR"]
    with pytest.raises(KeyError):
        reported_gteps("nonexistent")


def test_custom_benchmarks_cover_table4():
    from repro.generators.datasets import CUSTOM_HW_GRAPHS

    for spec in CUSTOM_HW_GRAPHS:
        bench_id, gteps = reported_gteps(spec.name)
        assert bench_id in CUSTOM_BENCHMARKS
        assert gteps > 0


def test_proposed_asic_beats_custom_benchmarks():
    """Fig. 17's claim: improvement on every Table 4 graph."""
    from repro.core.design_points import ITS_VC_ASIC
    from repro.generators.datasets import CUSTOM_HW_GRAPHS

    for spec in CUSTOM_HW_GRAPHS:
        _, bench = reported_gteps(spec.name)
        est = estimate_performance(ITS_VC_ASIC, spec.n_nodes, spec.n_edges)
        assert est.gteps > 3 * bench, spec.name
