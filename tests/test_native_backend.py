"""Native JIT backend: auto-detection, fallback, and bit-identity.

The ``native`` backend must be indistinguishable from the ``reference``
oracle on randomized engine runs -- identical result bits and identical
traffic ledgers -- whether Numba is installed (JIT-fused loops) or not
(inherited vectorized kernels).  On top of the differential properties,
these tests pin the detection machinery: the import-failure simulation
proves the fallback warns exactly once per process and still computes
correct results, and strict mode (``require=True``) turns the same
condition into a typed configuration error.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import (
    NativeBackend,
    available_backends,
    get_backend,
    resolve_backend,
)
from repro.backends.native import (
    JOBS_ENV_VAR,
    default_jobs,
    numba_available,
    reset_native_state,
)
from repro.core.config import TwoStepConfig
from repro.core.twostep import TwoStepEngine
from repro.faults.errors import ConfigurationError
from repro.generators.erdos_renyi import erdos_renyi_graph
from repro.merge.prap import prap_merge_dense


@pytest.fixture(autouse=True)
def _fresh_native_state():
    """Re-probe Numba and re-arm the warn-once latch around every test."""
    reset_native_state()
    yield
    reset_native_state()


def _quiet_native(**kwargs) -> NativeBackend:
    """A NativeBackend without the (expected) fallback warning noise."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return NativeBackend(**kwargs)


def _engine(backend, **config) -> TwoStepEngine:
    config.setdefault("segment_width", 64)
    config.setdefault("q", 2)
    return TwoStepEngine(TwoStepConfig(**config), backend=backend)


# ---------------------------------------------------------------------------
# Registry and resolution plumbing
# ---------------------------------------------------------------------------


def test_native_registered_and_resolvable():
    assert "native" in available_backends()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        backend = get_backend("native")
        assert isinstance(backend, NativeBackend)
        parameterized = resolve_backend("native", n_jobs=2)
    assert isinstance(parameterized, NativeBackend)
    assert parameterized.n_jobs == 2
    assert resolve_backend("native", n_jobs=2) is parameterized


def test_config_accepts_native():
    TwoStepConfig(segment_width=64, backend="native")  # must not raise


def test_invalid_n_jobs_rejected():
    with pytest.raises(ConfigurationError):
        _quiet_native(n_jobs=0)


def test_default_jobs_env_override(monkeypatch):
    monkeypatch.setenv(JOBS_ENV_VAR, "3")
    assert default_jobs() == 3
    monkeypatch.setenv(JOBS_ENV_VAR, "0")
    with pytest.raises(ValueError, match="must be positive"):
        default_jobs()
    monkeypatch.setenv(JOBS_ENV_VAR, "four")
    with pytest.raises(ValueError, match="must be an integer"):
        default_jobs()
    monkeypatch.delenv(JOBS_ENV_VAR)
    assert default_jobs() >= 1


# ---------------------------------------------------------------------------
# Engine-level differential properties (JIT or fallback tier alike)
# ---------------------------------------------------------------------------


@st.composite
def engine_cases(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.integers(16, 250))
    degree = draw(st.floats(0.5, 5.0))
    rng = np.random.default_rng(seed)
    graph = erdos_renyi_graph(n, degree, seed=seed)
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    x = rng.uniform(-2.0, 2.0, size=graph.n_cols).astype(dtype)
    config = dict(
        segment_width=draw(st.integers(7, 96)),
        q=draw(st.integers(0, 3)),
        check_interleave=draw(st.booleans()),
    )
    n_jobs = draw(st.sampled_from([1, 2]))
    return graph, x, config, n_jobs


@given(engine_cases())
@settings(max_examples=25, deadline=None)
def test_native_engine_bitwise_equals_reference(case):
    graph, x, config, n_jobs = case
    native = _engine(_quiet_native(n_jobs=n_jobs), **config)
    reference = _engine("reference", **config)
    got = native.run(graph, x)
    want = reference.run(graph, x)
    assert got.y.tobytes() == want.y.tobytes()
    assert got.report.traffic == want.report.traffic


@given(engine_cases(), st.sampled_from([1, 3, 32]))
@settings(max_examples=12, deadline=None)
def test_native_batch_bitwise_equals_reference(case, k):
    graph, x, config, n_jobs = case
    rng = np.random.default_rng(x.size)
    X = rng.uniform(-2.0, 2.0, size=(graph.n_cols, k)).astype(x.dtype)
    native = _engine(_quiet_native(n_jobs=n_jobs), **config)
    reference = _engine("reference", **config)
    got = native.run_many(graph, X)
    want = reference.run_many(graph, X)
    assert got.y.tobytes() == want.y.tobytes()
    assert got.report.traffic == want.report.traffic


def test_unfused_path_also_bitwise_equal():
    """Native's planned step 2 equals the unfused, plan-free
    ``prap_merge_dense`` on the reference backend, fed the same lists."""
    graph = erdos_renyi_graph(300, 3.0, seed=11)
    x = np.random.default_rng(11).uniform(size=graph.n_cols)
    for check_interleave in (False, True):
        native = _engine(_quiet_native(), check_interleave=check_interleave)
        lists = native._step1.run_planned(native.plan(graph), x)
        oracle = prap_merge_dense(
            lists, graph.n_rows, 2, check_interleave=check_interleave,
            backend="reference",
        )
        assert native.run(graph, x).y.tobytes() == oracle.tobytes()


# ---------------------------------------------------------------------------
# Fallback machinery
# ---------------------------------------------------------------------------


def _break_numba(monkeypatch):
    def unavailable():
        raise ImportError("simulated missing numba")

    monkeypatch.setattr("repro.backends.native._import_numba", unavailable)
    reset_native_state()


def test_fallback_warns_once_and_stays_correct(monkeypatch):
    _break_numba(monkeypatch)
    assert not numba_available()
    with pytest.warns(RuntimeWarning, match="Numba is unavailable"):
        backend = NativeBackend()
    assert backend.kernel_tier == "numpy-fallback"
    assert not backend.jit_enabled

    # Second construction in the same process: latch holds, no new warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        NativeBackend()

    graph = erdos_renyi_graph(400, 3.0, seed=5)
    x = np.random.default_rng(5).uniform(size=graph.n_cols)
    got = _engine(backend).run(graph, x)
    want = _engine("vectorized").run(graph, x)
    assert got.y.tobytes() == want.y.tobytes()
    assert got.report.traffic == want.report.traffic


def test_require_raises_when_unavailable(monkeypatch):
    _break_numba(monkeypatch)
    with pytest.raises(ConfigurationError, match="requires Numba"):
        NativeBackend(require=True)


@pytest.mark.skipif(not numba_available(), reason="JIT tier needs Numba")
def test_jit_tier_reports_and_compiles():
    backend = NativeBackend(n_jobs=1)
    assert backend.kernel_tier == "native-jit"
    graph = erdos_renyi_graph(200, 3.0, seed=9)
    x = np.random.default_rng(9).uniform(size=graph.n_cols)
    got = _engine(backend).run(graph, x)
    want = _engine("reference").run(graph, x)
    assert got.y.tobytes() == want.y.tobytes()
    assert backend.compiled_kernels > 0


# ---------------------------------------------------------------------------
# Telemetry surfacing
# ---------------------------------------------------------------------------


def test_engine_metrics_report_backend_and_tier():
    engine = _engine(_quiet_native(), telemetry=True)
    graph = erdos_renyi_graph(150, 3.0, seed=2)
    x = np.random.default_rng(2).uniform(size=graph.n_cols)
    engine.run(graph, x)
    engine.run(graph, x)
    tier = engine.backend.kernel_tier
    assert (
        engine.metrics().value(
            "spmv_backend_runs_total",
            labels={"backend": "native", "kernels": tier},
        )
        == 2.0
    )
