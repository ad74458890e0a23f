"""Execution-plan caching: reuse, invalidation, batching, cached verify.

The engine must build a plan exactly once per (matrix, config), serve
every later run from cache, evict LRU-style at the configured capacity,
and keep planned / batched execution bit-identical to the historical
per-run path.
"""

import numpy as np
import pytest

from repro.core.config import TwoStepConfig
from repro.core.plan import build_plan, config_fingerprint
from repro.core.twostep import (
    TwoStepEngine,
    clear_reference_cache,
    reference_spmv,
    reference_spmv_cached,
)
from repro.backends import get_backend
from repro.filters.hdn import HDNConfig
from repro.generators.erdos_renyi import erdos_renyi_graph


@pytest.fixture
def graph():
    return erdos_renyi_graph(300, 4.0, seed=5)


def _engine(**kwargs) -> TwoStepEngine:
    return TwoStepEngine(TwoStepConfig(segment_width=64, q=2, **kwargs))


def test_plan_reused_across_runs(graph):
    engine = _engine()
    x = np.random.default_rng(0).uniform(size=graph.n_cols)
    first = engine.run(graph, x)
    assert first.report.plan_cache_misses == 1
    assert first.report.plan_cache_hits == 0
    assert first.report.plan_build_s > 0.0
    for i in range(3):
        again = engine.run(graph, x)
        assert again.report.plan_cache_misses == 1
        assert again.report.plan_cache_hits == i + 1
        assert np.array_equal(first.y, again.y)
    assert engine.plan(graph) is engine.plan(graph)
    stats = engine.plan_cache_stats
    assert stats["misses"] == 1 and stats["size"] == 1


def test_distinct_matrices_get_distinct_plans(graph):
    other = erdos_renyi_graph(300, 4.0, seed=6)
    engine = _engine()
    plan_a = engine.plan(graph)
    plan_b = engine.plan(other)
    assert plan_a is not plan_b
    assert engine.plan_cache_stats["misses"] == 2
    assert engine.plan(graph) is plan_a  # both stay resident


def test_config_change_invalidates_fingerprint(graph):
    plain = TwoStepConfig(segment_width=64, q=2)
    compressed = TwoStepConfig(segment_width=64, q=2, vldi_vector_block_bits=8)
    assert config_fingerprint(plain) != config_fingerprint(compressed)
    backend = get_backend("vectorized")
    plan_plain = build_plan(graph, plain, backend)
    plan_vldi = build_plan(graph, compressed, backend)
    assert plan_plain.fingerprint != plan_vldi.fingerprint
    # The compressed plan accounts fewer intermediate-index bytes.
    assert (
        plan_vldi.traffic_ledger(compressed).intermediate_write_bytes
        < plan_plain.traffic_ledger(plain).intermediate_write_bytes
    )


def test_plan_cache_lru_eviction():
    engine = _engine(plan_cache=1)
    a = erdos_renyi_graph(120, 3.0, seed=1)
    b = erdos_renyi_graph(120, 3.0, seed=2)
    plan_a = engine.plan(a)
    engine.plan(b)  # evicts a
    assert engine.plan_cache_stats["size"] == 1
    assert engine.plan(a) is not plan_a
    assert engine.plan_cache_stats["misses"] == 3


def test_plan_cache_disabled(graph):
    engine = _engine(plan_cache=0)
    x = np.ones(graph.n_cols)
    engine.run(graph, x)
    engine.run(graph, x)
    stats = engine.plan_cache_stats
    assert stats["misses"] == 2 and stats["hits"] == 0 and stats["size"] == 0


def test_plan_traffic_matches_report(graph):
    """The plan's ledger is the report's ledger -- same bytes, same notes."""
    engine = _engine(vldi_vector_block_bits=8, hdn=HDNConfig(degree_threshold=8))
    x = np.random.default_rng(1).uniform(size=graph.n_cols)
    result = engine.run(graph, x)
    ledger = engine.plan(graph).traffic_ledger(engine.config)
    assert ledger == result.report.traffic


@pytest.mark.parametrize("batch", [None, 3])
def test_mutating_a_report_leaves_the_next_one_unchanged(graph, batch):
    """Reports copy the plan's cached ledger and stats templates: editing
    one result's report in place must not leak into later reports."""
    engine = _engine(hdn=HDNConfig(degree_threshold=8))

    def report():
        if batch is None:
            return engine.run(graph, np.ones(graph.n_cols)).report
        return engine.run_many(graph, np.ones((graph.n_cols, batch))).report

    def contents(rep):
        d = rep.to_dict()
        for key in ("plan_build_s", "plan_cache_hits", "plan_cache_misses"):
            d.pop(key)
        return d

    first = report()
    want = contents(first)
    first.traffic.matrix_bytes += 1.0
    first.traffic.notes["vldi_vector"] = -1
    first.step1.per_stripe_nnz.append(7)
    first.step1.cycles = -1.0
    first.step2.output_records += 5
    first.stripe_formats.clear()
    assert contents(report()) == want


def test_run_many_bitwise_matches_single_runs(graph):
    engine = _engine()
    rng = np.random.default_rng(2)
    X = rng.uniform(size=(graph.n_cols, 4))
    Y = rng.uniform(size=(graph.n_rows, 4))
    batch = engine.run_many(graph, X, Y=Y, verify=True)
    assert batch.verified
    assert batch.y.shape == (graph.n_rows, 4)
    for j in range(4):
        single = engine.run(graph, X[:, j], y=Y[:, j])
        assert np.array_equal(batch.y[:, j], single.y)


def test_run_many_amortizes_matrix_traffic(graph):
    engine = _engine()
    X = np.random.default_rng(3).uniform(size=(graph.n_cols, 8))
    single = engine.run(graph, X[:, 0]).report.traffic
    batch = engine.run_many(graph, X).report.traffic
    # Matrix bytes are charged once for the whole batch ...
    assert batch.matrix_bytes == single.matrix_bytes
    # ... while dense-vector traffic scales with the batch width.
    assert batch.source_vector_bytes == 8 * single.source_vector_bytes
    assert batch.result_vector_bytes == 8 * single.result_vector_bytes
    assert batch.intermediate_write_bytes < 8 * single.intermediate_write_bytes


def test_run_many_rejects_bad_shapes(graph):
    # A right-length 1-D RHS is normalized to a single column (the
    # serving path submits vectors); only genuinely wrong shapes raise.
    from repro.faults.errors import ConfigurationError

    engine = _engine()
    y, _ = engine.run_many(graph, np.ones(graph.n_cols))
    assert y.shape == (graph.n_rows, 1)
    with pytest.raises(ConfigurationError, match="run_many"):
        engine.run_many(graph, np.ones(graph.n_cols + 1))
    with pytest.raises(ValueError, match="Y must have shape"):
        engine.run_many(
            graph,
            np.ones((graph.n_cols, 2)),
            Y=np.ones((graph.n_rows, 3)),
        )


def test_reference_spmv_cached_reuses_dense_product(graph):
    clear_reference_cache()
    x = np.random.default_rng(4).uniform(size=graph.n_cols)
    first = reference_spmv_cached(graph, x)
    assert reference_spmv_cached(graph, x) is first
    assert not first.flags.writeable
    assert np.array_equal(first, reference_spmv(graph, x))
    # A different vector misses.
    assert reference_spmv_cached(graph, x + 1.0) is not first
    clear_reference_cache()


def test_verified_iteration_reuses_reference(graph):
    """verify=True across repeated runs hits the dense-reference cache."""
    clear_reference_cache()
    engine = _engine()
    x = np.random.default_rng(5).uniform(size=graph.n_cols)
    for _ in range(3):
        assert engine.run(graph, x, verify=True).verified
    from repro.core import twostep

    assert len(twostep._REFERENCE_CACHE) == 1
    clear_reference_cache()


def test_plan_cache_stats_concurrent_consistency():
    """Hit/miss counters must not lose updates under concurrent plan().

    Regression test for the unlocked ``plan_cache_stats`` counters: eight
    threads hammer ``plan`` on a small set of matrices, and afterwards
    every call must be accounted for as exactly one hit or one miss.
    """
    import threading

    matrices = [erdos_renyi_graph(120, 3.0, seed=s) for s in (21, 22, 23, 24)]
    engine = _engine(plan_cache=len(matrices))
    n_threads, calls_per_thread = 8, 25
    barrier = threading.Barrier(n_threads)
    errors = []

    def worker(tid):
        try:
            barrier.wait()
            for i in range(calls_per_thread):
                engine.plan(matrices[(tid + i) % len(matrices)])
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(t,)) for t in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    stats = engine.plan_cache_stats
    assert stats["hits"] + stats["misses"] == n_threads * calls_per_thread
    # Every matrix is planned at most once: the build happens under the
    # cache lock, so concurrent first requests cannot race a double build.
    assert stats["misses"] == len(matrices)
    assert stats["size"] == len(matrices)


def test_clear_plan_cache_concurrent_with_plan():
    """clear_plan_cache racing plan() leaves consistent counters."""
    import threading

    graph_a = erdos_renyi_graph(100, 3.0, seed=31)
    engine = _engine()
    stop = threading.Event()
    errors = []

    def planner():
        try:
            while not stop.is_set():
                engine.plan(graph_a)
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    thread = threading.Thread(target=planner)
    thread.start()
    for _ in range(20):
        engine.clear_plan_cache()
    stop.set()
    thread.join()
    assert not errors
    stats = engine.plan_cache_stats
    assert stats["hits"] + stats["misses"] >= stats["misses"] >= 1
    assert stats["size"] in (0, 1)


# ----------------------------------------------------------------------
# What a plan holds and when it builds it.
# ----------------------------------------------------------------------


@pytest.fixture
def layout_builds(monkeypatch):
    """Count the stripe batch layouts built (the symbolic merge layout,
    which composes a permutation, is not counted)."""
    from repro.core import plan as plan_module

    calls = []
    original = plan_module.build_run_layout

    def spy(run_starts, order=None):
        if order is None:
            calls.append(run_starts.size - 1)
        return original(run_starts, order=order)

    monkeypatch.setattr(plan_module, "build_run_layout", spy)
    return calls


def test_default_plan_reads_the_matrix_in_place(graph):
    plan = TwoStepEngine(TwoStepConfig()).plan(graph)
    (stripe,) = plan.stripes
    assert stripe.rows is graph.rows
    assert np.shares_memory(stripe.rows, graph.rows)
    assert np.shares_memory(stripe.cols, graph.cols)
    assert np.shares_memory(stripe.vals, graph.vals)


@pytest.mark.parametrize("width", [None, 64])
def test_run_builds_no_batch_layout(graph, layout_builds, width):
    engine = TwoStepEngine(TwoStepConfig(segment_width=width, q=2))
    x = np.random.default_rng(6).uniform(size=graph.n_cols)
    engine.run(graph, x)
    engine.run(graph, x)
    if width is None:
        # A one-stripe column-major run_many folds column by column.
        engine.run_many(graph, np.asfortranarray(np.ones((graph.n_cols, 3))))
    assert layout_builds == []


@pytest.mark.parametrize("width", [None, 64])
def test_first_row_major_run_many_builds_one_layout_per_stripe(graph, layout_builds, width):
    engine = TwoStepEngine(TwoStepConfig(segment_width=width, q=2, backend="vectorized"))
    X = np.random.default_rng(7).uniform(size=(graph.n_cols, 4))
    first = engine.run_many(graph, X)
    stripes = engine.plan(graph).stripes
    assert len(layout_builds) == len(stripes)
    layouts = [sp.run_groups for sp in stripes]
    again = engine.run_many(graph, X)
    assert len(layout_builds) == len(stripes)
    assert all(a is b for a, b in zip(layouts, (sp.run_groups for sp in stripes)))
    assert first.y.tobytes() == again.y.tobytes()


@pytest.mark.parametrize("width", [None, 64])
def test_concurrent_first_run_many_keeps_one_layout_per_stripe(graph, layout_builds, width):
    import sys
    import threading

    engine = TwoStepEngine(TwoStepConfig(segment_width=width, q=2, backend="vectorized"))
    rng = np.random.default_rng(8)
    X = rng.uniform(size=(graph.n_cols, 3))
    X[::4] = -0.0
    want = [engine.run(graph, X[:, j]).y.tobytes() for j in range(3)]
    assert layout_builds == []
    n_threads = 4
    barrier = threading.Barrier(n_threads)
    results, errors = [None] * n_threads, []

    def worker(t):
        try:
            barrier.wait()
            results[t] = engine.run_many(graph, X).y
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(t,)) for t in range(n_threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch often, so the first builds interleave
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    for Y in results:
        assert [Y[:, j].tobytes() for j in range(3)] == want
    stripes = engine.plan(graph).stripes
    # A race may build a stripe's layout more than once; one is kept.
    assert len(stripes) <= len(layout_builds) <= n_threads * len(stripes)
    kept = [sp.run_groups for sp in stripes]
    builds = len(layout_builds)
    engine.run_many(graph, X)
    assert len(layout_builds) == builds
    assert all(a is sp.run_groups for a, sp in zip(kept, stripes))


@pytest.mark.parametrize("width", [None, 64])
def test_planned_calls_leave_the_matrix_bytes_alone(graph, width):
    engine = TwoStepEngine(TwoStepConfig(segment_width=width, q=2))
    before = [a.tobytes() for a in (graph.rows, graph.cols, graph.vals)]
    rng = np.random.default_rng(9)
    engine.run(graph, rng.uniform(size=graph.n_cols))
    X = rng.uniform(size=(graph.n_cols, 5))
    engine.run_many(graph, np.ascontiguousarray(X), Y=np.ones((graph.n_rows, 5)))
    engine.run_many(graph, np.asfortranarray(X))
    engine.spgemm(graph, graph)
    assert [a.tobytes() for a in (graph.rows, graph.cols, graph.vals)] == before
