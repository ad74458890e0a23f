"""The public engine protocol: SpMVResult shape and compatibility."""

import numpy as np
import pytest

from repro import Accelerator, SpMVEngine, SpMVResult, TS_ASIC, TwoStepConfig
from repro.core.config import TwoStepConfig
from repro.core.twostep import TwoStepEngine, TwoStepReport, reference_spmv


@pytest.fixture
def engine():
    return TwoStepEngine(TwoStepConfig(segment_width=256, q=2))


def test_run_returns_spmv_result(engine, small_er_graph, rng):
    x = rng.uniform(size=small_er_graph.n_cols)
    result = engine.run(small_er_graph, x)
    assert isinstance(result, SpMVResult)
    assert isinstance(result.report, TwoStepReport)
    assert result.wall_time_s > 0.0
    assert result.verified is None  # verification not requested


def test_result_unpacks_like_tuple(engine, small_er_graph, rng):
    x = rng.uniform(size=small_er_graph.n_cols)
    result = engine.run(small_er_graph, x)
    y, report = result
    assert y is result.y
    assert report is result.report
    assert len(result) == 2
    assert result[0] is result.y
    assert result[1] is result.report


def test_verify_flag(engine, small_er_graph, rng):
    x = rng.uniform(size=small_er_graph.n_cols)
    result = engine.run(small_er_graph, x, verify=True)
    assert result.verified is True
    assert np.allclose(result.y, reference_spmv(small_er_graph, x))


def test_engines_satisfy_protocol(engine):
    assert isinstance(engine, SpMVEngine)
    assert isinstance(Accelerator(TS_ASIC), SpMVEngine)


def test_accelerator_returns_spmv_result(small_er_graph, rng):
    acc = Accelerator(
        TS_ASIC,
        simulation_segment_width=512,
        config=TwoStepConfig(backend="vectorized"),
    )
    x = rng.uniform(size=small_er_graph.n_cols)
    result = acc.run(small_er_graph, x, verify=True)
    assert isinstance(result, SpMVResult)
    assert result.verified is True
    assert result.report.backend == "vectorized"


def test_report_to_dict_round_trips_json(engine, small_er_graph, rng):
    import json

    x = rng.uniform(size=small_er_graph.n_cols)
    _, report = engine.run(small_er_graph, x)
    payload = json.loads(json.dumps(report.to_dict()))
    assert payload["backend"] == engine.backend.name
    assert payload["n_stripes"] == report.n_stripes
    assert payload["total_cycles"] == report.total_cycles
    assert payload["traffic"]["total_bytes"] == report.traffic.total_bytes
    assert all(fmt in ("CSR", "RM_COO") for fmt in payload["stripe_formats"])
