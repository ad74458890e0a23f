"""Tests for Iteration-overlapped Two-Step (section 5.2)."""

import numpy as np
import pytest

from repro.core.config import TwoStepConfig
from repro.core.its import ITSEngine, plain_iteration_traffic
from repro.core.twostep import TwoStepEngine


def make_engine(**kwargs):
    return ITSEngine(TwoStepEngine(TwoStepConfig(segment_width=256, q=2)), **kwargs)


def test_its_functional_matches_repeated_spmv(small_er_graph, rng):
    x0 = rng.uniform(size=small_er_graph.n_cols)
    engine = make_engine()
    x_its, _ = engine.run_iterations(small_er_graph, x0, 3)
    ref = x0
    for _ in range(3):
        ref = small_er_graph.spmv(ref)
    assert np.allclose(x_its, ref)


def test_its_transform_applied(small_er_graph, rng):
    x0 = rng.uniform(size=small_er_graph.n_cols)
    engine = make_engine()
    x_its, _ = engine.run_iterations(
        small_er_graph, x0, 2, transform=lambda v: 0.5 * v + 1.0
    )
    ref = x0
    for _ in range(2):
        ref = 0.5 * small_er_graph.spmv(ref) + 1.0
    assert np.allclose(x_its, ref)


def test_its_saves_vector_round_trips(small_er_graph, rng):
    x0 = rng.uniform(size=small_er_graph.n_cols)
    engine = make_engine()
    n_iter = 5
    _, report = engine.run_iterations(small_er_graph, x0, n_iter)
    plain = plain_iteration_traffic(report.per_iteration)
    vb = 4  # single precision
    n = small_er_graph.n_rows
    saved = plain.total_bytes - report.traffic.total_bytes
    # Interior transitions save one x-read and one y-write each.
    assert saved == pytest.approx((n_iter - 1) * 2 * n * vb)


def test_its_single_iteration_saves_nothing(small_er_graph, rng):
    x0 = rng.uniform(size=small_er_graph.n_cols)
    engine = make_engine()
    _, report = engine.run_iterations(small_er_graph, x0, 1)
    plain = plain_iteration_traffic(report.per_iteration)
    assert report.traffic.total_bytes == pytest.approx(plain.total_bytes)


def test_its_overlap_speedup(small_er_graph, rng):
    x0 = rng.uniform(size=small_er_graph.n_cols)
    engine = make_engine()
    _, report = engine.run_iterations(small_er_graph, x0, 6)
    assert report.overlapped_cycles < report.sequential_cycles
    assert 1.0 < report.cycle_speedup <= 2.0


def test_its_stop_condition(small_er_graph, rng):
    x0 = rng.uniform(size=small_er_graph.n_cols)
    engine = make_engine()
    calls = []

    def stop(prev, new):
        calls.append(1)
        return len(calls) >= 2

    _, report = engine.run_iterations(small_er_graph, x0, 10, stop_condition=stop)
    assert report.iterations == 2
    assert len(report.per_iteration) == 2


def test_its_max_dimension_enforced(small_er_graph, rng):
    engine = make_engine(max_dimension=100)
    with pytest.raises(ValueError):
        engine.run_iterations(small_er_graph, np.ones(small_er_graph.n_cols), 1)


def test_its_requires_square():
    from repro.formats.coo import COOMatrix

    rect = COOMatrix.from_triples(3, 4, [0], [1], [1.0])
    engine = make_engine()
    with pytest.raises(ValueError):
        engine.run_iterations(rect, np.ones(4), 1)


def test_its_requires_positive_iterations(small_er_graph):
    engine = make_engine()
    with pytest.raises(ValueError):
        engine.run_iterations(small_er_graph, np.ones(small_er_graph.n_cols), 0)


def test_its_matches_plain_engine_traffic_per_iteration(small_er_graph, rng):
    """Each recorded per-iteration report equals a plain TS run."""
    x0 = rng.uniform(size=small_er_graph.n_cols)
    its = make_engine()
    _, report = its.run_iterations(small_er_graph, x0, 2)
    plain_engine = TwoStepEngine(TwoStepConfig(segment_width=256, q=2))
    _, plain_report = plain_engine.run(small_er_graph, x0)
    first = report.per_iteration[0]
    assert first.traffic.matrix_bytes == pytest.approx(plain_report.traffic.matrix_bytes)
    assert first.intermediate_records == plain_report.intermediate_records
