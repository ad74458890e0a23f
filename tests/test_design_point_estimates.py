"""Invariants of the analytic performance model on every Table 2 design point.

The older model tests pin individual numbers on one or two points
(``test_core_perf.py``, ``test_core_design_points.py``).  These hold the
structural rules of :func:`estimate_performance` and
:func:`estimate_iterative` on all seven points, and the linearity of the
DRAM and energy presets the points are built from: phase composition
(serial under Two-Step, overlapped under ITS), the bandwidth and compute
roofs, energy accounting, capacity and iteration scaling.
"""

from dataclasses import replace

import pytest

from repro.core.design_points import ALL_DESIGN_POINTS, with_vector_buffer
from repro.core.perf import estimate_iterative, estimate_performance, twostep_traffic
from repro.memory.dram import DDR4_DUAL_SOCKET, GDDR5, HBM2_4STACK, HBM2_STACK, MCDRAM_PHI
from repro.memory.energy import (
    ASIC_16NM_ENERGY,
    CPU_ENERGY,
    FPGA_ENERGY,
    GPU_ENERGY,
    PHI_ENERGY,
)
from repro.memory.traffic import TrafficLedger

POINTS = pytest.mark.parametrize("point", ALL_DESIGN_POINTS, ids=lambda p: p.name)
DRAMS = (HBM2_STACK, HBM2_4STACK, DDR4_DUAL_SOCKET, GDDR5, MCDRAM_PHI)
ENERGIES = (ASIC_16NM_ENERGY, FPGA_ENERGY, CPU_ENERGY, PHI_ENERGY, GPU_ENERGY)


def _problem(point):
    """A quarter-capacity problem at average degree 3."""
    n_nodes = point.max_nodes // 4
    return n_nodes, 3 * n_nodes


def _phase_bytes(traffic):
    step1 = traffic.source_vector_bytes + traffic.matrix_bytes + traffic.intermediate_write_bytes
    step2 = traffic.intermediate_read_bytes + traffic.result_vector_bytes
    return step1, step2


@POINTS
def test_runtime_composes_phases(point):
    """Two-Step runs its phases back to back; ITS overlaps them."""
    est = estimate_performance(point, *_problem(point))
    if point.its:
        assert est.runtime_s == pytest.approx(max(est.step1_time_s, est.step2_time_s))
    else:
        assert est.runtime_s == pytest.approx(est.step1_time_s + est.step2_time_s)


@POINTS
def test_each_phase_within_stream_bandwidth(point):
    est = estimate_performance(point, *_problem(point))
    step1_bytes, step2_bytes = _phase_bytes(est.traffic)
    bw = point.dram.stream_bandwidth
    assert step1_bytes / est.step1_time_s <= bw * (1 + 1e-9)
    assert step2_bytes / est.step2_time_s <= bw * (1 + 1e-9)


@POINTS
def test_gteps_within_step1_compute_roof(point):
    """Every edge passes a step-1 pipeline, so their rate caps GTEPS."""
    n_nodes, n_edges = _problem(point)
    est = estimate_performance(point, n_nodes, n_edges)
    roof = point.step1_record_rate * point.efficiency / 1e9
    assert 0 < est.gteps <= roof * (1 + 1e-9)
    assert est.gteps == pytest.approx(n_edges / est.runtime_s / 1e9)


@POINTS
def test_bound_follows_dram_bandwidth(point):
    """Starving the DRAM makes a point memory bound; a vast one, compute bound."""
    problem = _problem(point)
    bw = point.dram.stream_bandwidth
    starved = replace(point, dram=replace(point.dram, stream_bandwidth=bw / 1e4))
    flooded = replace(point, dram=replace(point.dram, stream_bandwidth=bw * 1e4))
    slow = estimate_performance(starved, *problem)
    fast = estimate_performance(flooded, *problem)
    assert slow.bound == "memory"
    assert fast.bound == "compute"
    assert slow.runtime_s > estimate_performance(point, *problem).runtime_s >= fast.runtime_s


@POINTS
def test_energy_covers_static_power_and_traffic(point):
    n_nodes, n_edges = _problem(point)
    est = estimate_performance(point, n_nodes, n_edges)
    floor = (
        point.energy.static_power_w * est.runtime_s
        + est.traffic.total_bytes * point.energy.pj_per_dram_byte * 1e-12
    )
    assert est.energy_j >= floor
    assert est.nj_per_edge == pytest.approx(est.energy_j / n_edges * 1e9)


@POINTS
def test_capacity_gate_at_max_nodes(point):
    n_max = point.max_nodes
    estimate_performance(point, n_max, 3 * n_max)
    with pytest.raises(ValueError, match=point.name):
        estimate_performance(point, n_max + 1, 3 * n_max)
    unchecked = estimate_performance(point, n_max + 1, 3 * n_max, check_capacity=False)
    assert unchecked.n_nodes == n_max + 1


@POINTS
def test_runtime_and_energy_grow_with_edges(point):
    n_nodes = point.max_nodes // 4
    estimates = [estimate_performance(point, n_nodes, d * n_nodes) for d in (1, 2, 4, 8, 16)]
    runtimes = [e.runtime_s for e in estimates]
    energies = [e.energy_j for e in estimates]
    assert runtimes == sorted(runtimes)
    assert energies == sorted(energies)
    assert runtimes[-1] > runtimes[0]


@POINTS
def test_single_iteration_adds_only_the_boundary(point):
    """One ITS iteration pays the x read and y write the overlap skipped."""
    n_nodes, n_edges = _problem(point)
    est = estimate_performance(point, n_nodes, n_edges)
    run = estimate_iterative(point, n_nodes, n_edges, iterations=1)
    vector_bytes = n_nodes * point.value_bytes
    assert run.traffic.source_vector_bytes == pytest.approx(vector_bytes)
    assert run.traffic.result_vector_bytes == pytest.approx(vector_bytes)
    extra = 2 * vector_bytes / point.dram.stream_bandwidth if point.its else 0.0
    assert run.runtime_s == pytest.approx(est.runtime_s + extra)


@POINTS
def test_iterations_scale_linearly(point):
    n_nodes, n_edges = _problem(point)
    one = estimate_iterative(point, n_nodes, n_edges, iterations=1)
    ten = estimate_iterative(point, n_nodes, n_edges, iterations=10)
    per_iteration = one.per_iteration.runtime_s
    assert ten.runtime_s - one.runtime_s == pytest.approx(9 * per_iteration)
    assert ten.traffic.matrix_bytes == pytest.approx(10 * one.traffic.matrix_bytes)
    assert ten.gteps >= one.gteps * (1 - 1e-9)
    with pytest.raises(ValueError):
        estimate_iterative(point, n_nodes, n_edges, iterations=0)


@POINTS
def test_segments_fill_the_vector_buffer(point):
    resident = point.segment_elements * point.value_bytes * point.segments_resident
    assert resident <= point.vector_buffer_bytes
    assert point.vector_buffer_bytes - resident < point.value_bytes * point.segments_resident
    assert point.max_nodes == point.merge_ways * point.segment_elements
    full = twostep_traffic(point.max_nodes, 3 * point.max_nodes, point)
    assert full.notes["n_stripes"] == point.merge_ways


@POINTS
def test_modelled_traffic_is_streaming_only(point):
    traffic = twostep_traffic(*_problem(point), point)
    assert traffic.cache_line_wastage_bytes == 0.0
    assert traffic.intermediate_write_bytes == traffic.intermediate_read_bytes > 0
    if point.its:
        assert traffic.source_vector_bytes == traffic.result_vector_bytes == 0.0
    else:
        assert traffic.source_vector_bytes == traffic.result_vector_bytes > 0


@POINTS
def test_doubling_vector_buffer_doubles_capacity(point):
    doubled = with_vector_buffer(point, 2 * point.vector_buffer_bytes)
    assert doubled.max_nodes == 2 * point.max_nodes
    assert doubled.merge_ways == point.merge_ways
    n_nodes = point.max_nodes
    fewer = twostep_traffic(n_nodes, 3 * n_nodes, doubled).notes["n_stripes"]
    assert fewer == -(-point.merge_ways // 2)


@POINTS
def test_vldi_only_shrinks_intermediates(point):
    """VLDI changes the record size and nothing else in the ledger."""
    problem = _problem(point)
    with_vldi = twostep_traffic(*problem, replace(point, vldi=True))
    without = twostep_traffic(*problem, replace(point, vldi=False))
    assert with_vldi.matrix_bytes == without.matrix_bytes
    assert with_vldi.source_vector_bytes == without.source_vector_bytes
    assert with_vldi.intermediate_write_bytes == pytest.approx(
        without.intermediate_write_bytes * point.vldi_record_factor
    )


@pytest.mark.parametrize("dram", DRAMS, ids=lambda d: d.name)
def test_dram_preset_costs_are_linear(dram):
    a, b = 3.0e9, 5.5e8
    assert dram.stream_time(a + b) == pytest.approx(dram.stream_time(a) + dram.stream_time(b))
    assert dram.random_time(2e6) == pytest.approx(2 * dram.random_time(1e6))
    assert dram.transfer_energy_j(a + b) == pytest.approx(
        dram.transfer_energy_j(a) + dram.transfer_energy_j(b)
    )
    # A cache line fetched at random never beats the same bytes streamed.
    lines = 1e6
    assert dram.random_time(lines) > dram.stream_time(lines * dram.cache_line_bytes)
    with pytest.raises(ValueError):
        dram.random_time(-1)


@pytest.mark.parametrize("model", ENERGIES, ids=lambda m: m.name)
def test_energy_preset_splits_into_static_and_dynamic(model):
    traffic = TrafficLedger(matrix_bytes=8e9, intermediate_write_bytes=2e9)
    n_edges = 1e9
    dynamic = model.energy_j(traffic, n_edges, 0.0, onchip_bytes=4e9)
    total = model.energy_j(traffic, n_edges, 0.25, onchip_bytes=4e9)
    assert dynamic > 0
    assert total == pytest.approx(dynamic + 0.25 * model.static_power_w)
    doubled = model.energy_j(traffic.scaled(2), 2 * n_edges, 0.0, onchip_bytes=8e9)
    assert doubled == pytest.approx(2 * dynamic)
    assert model.nj_per_edge(traffic, n_edges, 0.25, onchip_bytes=4e9) == pytest.approx(
        total / n_edges * 1e9
    )
