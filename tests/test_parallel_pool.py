"""Units for the parallel subsystem: pool, shared memory, sharding."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.backends.vectorized import VectorizedBackend
from repro.parallel.pool import JOBS_ENV_VAR, WorkerPool, default_jobs
from repro.parallel.shm import ArrayExporter, import_array


# ---------------------------------------------------------------------------
# WorkerPool
# ---------------------------------------------------------------------------


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


def test_pool_rejects_bad_arguments():
    with pytest.raises(ValueError, match="unknown pool kind"):
        WorkerPool(2, kind="fibers")
    with pytest.raises(ValueError, match="n_jobs must be positive"):
        WorkerPool(0)


def test_single_worker_pool_is_inline():
    pool = WorkerPool(1, kind="thread")
    assert pool.inline and not pool.uses_processes
    assert pool.map(lambda v: v * 2, [1, 2, 3]) == [2, 4, 6]
    assert pool._executor is None  # never spawned
    pool.close()


def test_thread_pool_preserves_order():
    with WorkerPool(4, kind="thread") as pool:
        assert not pool.inline
        tasks = list(range(64))
        assert pool.map(lambda v: v * v, tasks) == [v * v for v in tasks]
    assert pool._executor is None  # context exit closed it
    pool.close()  # idempotent


# ---------------------------------------------------------------------------
# Shared-memory transport
# ---------------------------------------------------------------------------


def test_small_arrays_travel_inline():
    array = np.arange(16, dtype=np.float64)
    with ArrayExporter() as exporter:
        spec = exporter.export(array)
        assert spec.shm_name is None
        out, handle = import_array(spec)
        assert handle is None
        assert np.array_equal(out, array)


def test_large_arrays_travel_via_shared_memory():
    array = np.arange(200_000, dtype=np.float64)  # 1.6 MB > SHM_MIN_BYTES
    with ArrayExporter() as exporter:
        spec = exporter.export(array)
        assert spec.shm_name is not None and spec.data is None
        out, handle = import_array(spec)
        try:
            assert np.array_equal(out, array)
        finally:
            del out
            handle.close()


def test_exporter_threshold_is_tunable():
    array = np.arange(32, dtype=np.int64)
    with ArrayExporter(min_bytes=1) as exporter:
        spec = exporter.export(array)
        assert spec.shm_name is not None
        out, handle = import_array(spec)
        try:
            assert np.array_equal(out, array)
        finally:
            del out
            handle.close()


# ---------------------------------------------------------------------------
# Residue-class sharding
# ---------------------------------------------------------------------------


def _random_sorted_lists(rng, n_lists=5, key_space=97):
    lists = []
    for _ in range(n_lists):
        size = int(rng.integers(0, key_space))
        idx = np.sort(rng.choice(key_space, size=size, replace=False))
        lists.append((idx.astype(np.int64), rng.uniform(-1, 1, size=size)))
    return lists


@pytest.mark.parametrize("n_shards", [1, 2, 3, 4, 7])
def test_sharded_merge_bitwise_equals_sequential(n_shards):
    """The planned merge sharded over run ranges equals the serial one."""
    from repro.backends.parallel import ParallelBackend
    from repro.core.plan import build_step2_symbolic

    rng = np.random.default_rng(42)
    lists = _random_sorted_lists(rng)
    stripes = [SimpleNamespace(out_indices=idx) for idx, _ in lists]
    symbolic = build_step2_symbolic(stripes, 97, 1)
    want = VectorizedBackend().merge_accumulate_plan(symbolic, lists)
    backend = ParallelBackend(n_jobs=n_shards, min_parallel_nnz=0)
    try:
        got = backend.merge_accumulate_plan(symbolic, lists)
    finally:
        backend.close()
    assert np.array_equal(want, got)


# ---------------------------------------------------------------------------
# Size-aware dispatch guard (min_parallel_nnz)
# ---------------------------------------------------------------------------


def _run_tiny(backend):
    """One telemetry-enabled engine run on a matrix far below the guard."""
    from repro.core.config import TwoStepConfig
    from repro.core.twostep import TwoStepEngine
    from repro.generators.erdos_renyi import erdos_renyi_graph

    graph = erdos_renyi_graph(60, 2.0, seed=21)
    x = np.random.default_rng(21).uniform(size=graph.n_cols)
    engine = TwoStepEngine(
        TwoStepConfig(segment_width=16, q=2, telemetry=True), backend=backend
    )
    return engine, engine.run(graph, x)


def test_min_parallel_nnz_defaults_and_overrides(monkeypatch):
    from repro.backends.parallel import (
        MIN_PARALLEL_NNZ_ENV_VAR,
        ParallelBackend,
    )

    backend = ParallelBackend(n_jobs=2)
    assert backend.min_parallel_nnz == ParallelBackend.MIN_FANOUT_RECORDS
    # Instance-attribute override (the _eager_parallel test idiom) still
    # reaches the guard through the lazy property.
    backend.MIN_FANOUT_RECORDS = 0
    assert backend.min_parallel_nnz == 0
    backend.close()

    explicit = ParallelBackend(n_jobs=2, min_parallel_nnz=123)
    assert explicit.min_parallel_nnz == 123
    explicit.close()

    monkeypatch.setenv(MIN_PARALLEL_NNZ_ENV_VAR, "777")
    from_env = ParallelBackend(n_jobs=2)
    assert from_env.min_parallel_nnz == 777
    from_env.close()


def test_min_parallel_nnz_rejects_bad_values(monkeypatch):
    from repro.backends.parallel import (
        MIN_PARALLEL_NNZ_ENV_VAR,
        ParallelBackend,
    )
    from repro.faults.errors import ConfigurationError

    with pytest.raises(ConfigurationError, match=">= 0"):
        ParallelBackend(n_jobs=2, min_parallel_nnz=-1)
    monkeypatch.setenv(MIN_PARALLEL_NNZ_ENV_VAR, "lots")
    with pytest.raises(ConfigurationError, match="not an"):
        ParallelBackend(n_jobs=2)


def test_tiny_input_bypasses_fanout_and_counts():
    from repro.backends import get_backend
    from repro.backends.parallel import ParallelBackend

    backend = ParallelBackend(n_jobs=2)
    try:
        engine, result = _run_tiny(backend)
        bypassed = engine.metrics().total("spmv_parallel_bypass_total")
        assert bypassed > 0  # every fan-out site degraded inline
        sites = {
            dict(key).get("site")
            for key in engine.metrics().series("spmv_parallel_bypass_total")
        }
        assert "stripe" in sites
        # Degradation is silent in results: bit-identical to vectorized.
        _, want = _run_tiny(get_backend("vectorized"))
        assert result.y.tobytes() == want.y.tobytes()
        assert result.report.traffic == want.report.traffic
    finally:
        backend.close()


def test_zero_threshold_disables_bypass():
    from repro.backends.parallel import ParallelBackend

    backend = ParallelBackend(n_jobs=2, min_parallel_nnz=0)
    try:
        engine, _result = _run_tiny(backend)
        assert engine.metrics().total("spmv_parallel_bypass_total") == 0.0
    finally:
        backend.close()
