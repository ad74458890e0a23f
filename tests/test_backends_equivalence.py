"""Differential tests: every execution backend is bit-compatible.

The ``vectorized`` and ``native`` backends must be indistinguishable
from the ``reference`` oracle on randomized inputs -- identical result
bits, identical intermediate record counts, identical traffic-ledger
byte totals, identical cycle statistics.  Kernel-level properties pin
each backend method; engine-level properties pin the whole Two-Step
path across ER/RMAT structure, HDN on/off, VLDI on/off and ``prange``
thread counts.
"""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import (
    BACKEND_ENV_VAR,
    DEFAULT_BACKEND,
    available_backends,
    get_backend,
    resolve_backend,
)
from repro.core.config import TwoStepConfig
from repro.core.plan import build_step2_symbolic
from repro.core.twostep import TwoStepEngine, reference_spmv
from repro.filters.hdn import HDNConfig
from repro.generators.erdos_renyi import erdos_renyi_graph
from repro.generators.rmat import rmat_graph

REFERENCE = get_backend("reference")
VECTORIZED = get_backend("vectorized")


# ---------------------------------------------------------------------------
# Kernel-level properties
# ---------------------------------------------------------------------------


@st.composite
def stripe_streams(draw):
    """Row-major sorted (rows, cols, vals, x_segment) stripe streams."""
    n_rows = draw(st.integers(1, 60))
    width = draw(st.integers(1, 40))
    nnz = draw(st.integers(0, 200))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = np.sort(rng.integers(0, n_rows, size=nnz)).astype(np.int64)
    cols = rng.integers(0, width, size=nnz).astype(np.int64)
    vals = rng.uniform(-2.0, 2.0, size=nnz)
    x_segment = rng.uniform(-2.0, 2.0, size=width)
    return rows, cols, vals, x_segment


@given(stripe_streams())
@settings(max_examples=60, deadline=None)
def test_stripe_spmv_kernels_bitwise_equal(stream):
    rows, cols, vals, x_segment = stream
    ref_idx, ref_val = REFERENCE.stripe_spmv(rows, cols, vals, x_segment)
    vec_idx, vec_val = VECTORIZED.stripe_spmv(rows, cols, vals, x_segment)
    assert np.array_equal(ref_idx, vec_idx)
    assert np.array_equal(ref_val, vec_val)  # bitwise, not allclose


@st.composite
def sorted_lists(draw):
    """Up to 8 sorted (indices, values) lists over a shared key space."""
    key_space = draw(st.integers(1, 120))
    n_lists = draw(st.integers(0, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lists = []
    for _ in range(n_lists):
        size = int(rng.integers(0, key_space + 1))
        idx = np.sort(rng.choice(key_space, size=size, replace=False)).astype(np.int64)
        lists.append((idx, rng.uniform(-1.0, 1.0, size=size)))
    return key_space, lists


@given(sorted_lists())
@settings(max_examples=60, deadline=None)
def test_merge_accumulate_kernels_bitwise_equal(data):
    _, lists = data
    ref_idx, ref_val = REFERENCE.merge_accumulate(lists)
    vec_idx, vec_val = VECTORIZED.merge_accumulate(lists)
    assert np.array_equal(ref_idx, vec_idx)
    assert np.array_equal(ref_val, vec_val)


@given(sorted_lists(), st.sampled_from([1, 2, 4]))
@settings(max_examples=30, deadline=None)
def test_planned_merge_bitwise_equal(data, n_jobs):
    """The planned merge matches the plan-free oracle merge bit for bit,
    on every fast backend and at every ``prange`` thread count."""
    key_space, lists = data
    stripes = [SimpleNamespace(out_indices=idx) for idx, _ in lists]
    symbolic = build_step2_symbolic(stripes, key_space, 1)
    ref_idx, ref_val = REFERENCE.merge_accumulate(lists)
    assert np.array_equal(ref_idx, symbolic.merged_keys)
    for backend in (VECTORIZED, resolve_backend("native", n_jobs=n_jobs)):
        assert np.array_equal(ref_val, backend.merge_accumulate_plan(symbolic, lists))


@given(sorted_lists(), st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_inject_missing_keys_kernels_equal(data, q):
    key_space, lists = data
    stride = 1 << q
    merged_idx, merged_val = VECTORIZED.merge_accumulate(lists)
    for offset in range(stride):
        mask = (merged_idx % stride) == offset
        args = (merged_idx[mask], merged_val[mask], (0, key_space), stride, offset)
        ref_keys, ref_vals = REFERENCE.inject_missing_keys(*args)
        vec_keys, vec_vals = VECTORIZED.inject_missing_keys(*args)
        assert np.array_equal(ref_keys, vec_keys)
        assert np.array_equal(ref_vals, vec_vals)


@given(
    st.lists(st.integers(1, 2**62 - 1), min_size=0, max_size=60),
    st.integers(1, 32),
)
@settings(max_examples=80, deadline=None)
def test_vldi_stream_bits_kernels_equal(deltas, block_bits):
    deltas = np.asarray(deltas, dtype=np.int64)
    assert REFERENCE.vldi_stream_bits(deltas, block_bits) == VECTORIZED.vldi_stream_bits(
        deltas, block_bits
    )


def test_inject_missing_keys_rejects_foreign_radix():
    keys = np.array([3], dtype=np.int64)
    vals = np.array([1.0])
    for backend in (REFERENCE, VECTORIZED):
        with pytest.raises(ValueError):
            backend.inject_missing_keys(keys, vals, (0, 8), stride=4, offset=0)


# ---------------------------------------------------------------------------
# Engine-level differential properties
# ---------------------------------------------------------------------------


def _graph(family: str, seed: int):
    if family == "er":
        return erdos_renyi_graph(900, 3.0, seed=seed)
    return rmat_graph(9, 6.0, seed=seed)


def _run(graph, x, backend: str, **cfg_kwargs):
    config = TwoStepConfig(segment_width=193, q=3, backend=backend, **cfg_kwargs)
    return TwoStepEngine(config).run(graph, x)


LEDGER_FIELDS = (
    "matrix_bytes",
    "source_vector_bytes",
    "result_vector_bytes",
    "intermediate_write_bytes",
    "intermediate_read_bytes",
    "cache_line_wastage_bytes",
)


@pytest.mark.parametrize("family", ["er", "rmat"])
@pytest.mark.parametrize(
    "cfg",
    [
        {},
        {"hdn": HDNConfig(degree_threshold=16)},
        {"vldi_vector_block_bits": 8, "vldi_matrix_block_bits": 6},
        {
            "hdn": HDNConfig(degree_threshold=16),
            "vldi_vector_block_bits": 4,
            "check_interleave": True,
        },
    ],
    ids=["plain", "hdn", "vldi", "hdn+vldi+interleave"],
)
@given(seed=st.integers(0, 2**16))
@settings(max_examples=8, deadline=None)
def test_backends_agree_end_to_end(family, cfg, seed):
    graph = _graph(family, seed % 5)
    x = np.random.default_rng(seed).uniform(size=graph.n_cols)
    ref = _run(graph, x, "reference", **cfg)
    vec = _run(graph, x, "vectorized", **cfg)
    nat = _run(graph, x, "native", **cfg)

    # Result vectors are bit-comparable -- not merely allclose.
    assert np.array_equal(ref.y, vec.y)
    assert np.array_equal(ref.y, nat.y)
    assert np.allclose(ref.y, reference_spmv(graph, x))

    # Identical instrumentation: records, formats, cycle stats, ledgers.
    for other in (vec, nat):
        assert ref.report.intermediate_records == other.report.intermediate_records
        assert ref.report.stripe_formats == other.report.stripe_formats
        assert dataclasses.asdict(ref.report.step1) == dataclasses.asdict(other.report.step1)
        assert dataclasses.asdict(ref.report.step2) == dataclasses.asdict(other.report.step2)
        for field in LEDGER_FIELDS:
            assert getattr(ref.report.traffic, field) == getattr(other.report.traffic, field), field
        assert ref.report.traffic.total_bytes == other.report.traffic.total_bytes


@pytest.mark.parametrize("n_jobs", [1, 2, 4])
def test_native_engine_bitwise_equal_across_job_counts(n_jobs):
    """``prange`` execution is invariant in the thread count -- bit for bit."""
    graph = _graph("rmat", 3)
    x = np.random.default_rng(7).uniform(size=graph.n_cols)
    cfg = dict(hdn=HDNConfig(degree_threshold=16), vldi_vector_block_bits=8)
    vec = _run(graph, x, "vectorized", **cfg)
    nat = _run(graph, x, "native", n_jobs=n_jobs, **cfg)
    assert np.array_equal(vec.y, nat.y)
    for field in LEDGER_FIELDS:
        assert getattr(vec.report.traffic, field) == getattr(nat.report.traffic, field)


@pytest.mark.parametrize("backend", ["reference", "vectorized", "native"])
def test_run_many_matches_column_runs(backend):
    """Batched execution is column-for-column bit-identical to run()."""
    graph = _graph("er", 2)
    rng = np.random.default_rng(13)
    X = rng.uniform(size=(graph.n_cols, 3))
    config = TwoStepConfig(segment_width=193, q=3, backend=backend)
    engine = TwoStepEngine(config)
    batch = engine.run_many(graph, X, verify=True)
    assert batch.verified
    assert batch.report.batch_size == 3
    for j in range(3):
        single = engine.run(graph, X[:, j])
        assert np.array_equal(batch.y[:, j], single.y)


def test_accumuland_agrees_across_backends(small_er_graph, rng):
    x = rng.uniform(size=small_er_graph.n_cols)
    y0 = rng.uniform(size=small_er_graph.n_rows)
    ref = _run(small_er_graph, x, "reference")
    vec = _run(small_er_graph, x, "vectorized")
    engine_ref = TwoStepEngine(TwoStepConfig(segment_width=193, q=3, backend="reference"))
    engine_vec = TwoStepEngine(TwoStepConfig(segment_width=193, q=3, backend="vectorized"))
    assert np.array_equal(
        engine_ref.run(small_er_graph, x, y=y0).y,
        engine_vec.run(small_er_graph, x, y=y0).y,
    )
    assert np.array_equal(ref.y, vec.y)


# ---------------------------------------------------------------------------
# Selection plumbing
# ---------------------------------------------------------------------------


def test_available_backends_registry():
    assert available_backends() == ("native", "reference", "vectorized")
    assert DEFAULT_BACKEND in available_backends()
    with pytest.raises(ValueError, match="unknown backend"):
        get_backend("cuda")


def test_resolve_precedence(monkeypatch):
    monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
    assert resolve_backend(None).name == DEFAULT_BACKEND
    monkeypatch.setenv(BACKEND_ENV_VAR, "reference")
    assert resolve_backend(None).name == "reference"
    # An explicit name beats the environment; an instance beats both.
    assert resolve_backend("vectorized").name == "vectorized"
    assert resolve_backend(REFERENCE) is REFERENCE


def test_env_var_reaches_engine(monkeypatch, tiny_matrix):
    monkeypatch.setenv(BACKEND_ENV_VAR, "reference")
    engine = TwoStepEngine(TwoStepConfig(segment_width=4))
    result = engine.run(tiny_matrix, np.ones(tiny_matrix.n_cols))
    assert engine.backend.name == "reference"
    assert result.report.backend == "reference"


def test_config_rejects_unknown_backend():
    with pytest.raises(ValueError, match="unknown backend"):
        TwoStepConfig(segment_width=8, backend="tpu")


def test_config_backend_beats_env(monkeypatch):
    monkeypatch.setenv(BACKEND_ENV_VAR, "reference")
    engine = TwoStepEngine(TwoStepConfig(segment_width=8, backend="vectorized"))
    assert engine.backend.name == "vectorized"
