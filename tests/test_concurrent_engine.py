"""Concurrent engine access: the contract the serving layer relies on.

One engine instance is shared by the micro-batcher's worker threads, so
these tests pin down the thread-safety properties: the plan cache
builds each plan exactly once under its lock, the ``Step2Symbolic``
structure is built once per ``(plan, p)`` and shared by identity,
results stay bit-identical to a single-threaded run under 8+ concurrent
callers, and concurrent ``verify=True`` runs share the dense-reference
cache safely.
"""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro import create_engine
from repro.core import twostep
from repro.generators import erdos_renyi_graph

N_THREADS = 10


@pytest.fixture(scope="module")
def graph():
    return erdos_renyi_graph(n_nodes=2000, avg_degree=4.0, seed=21)


@pytest.fixture
def engine():
    return create_engine(segment_width=512, backend="vectorized")


def _fan_out(fn, n=N_THREADS):
    """Run ``fn(i)`` on ``n`` threads, released simultaneously."""
    barrier = threading.Barrier(n)

    def task(i):
        barrier.wait(timeout=10)
        return fn(i)

    with ThreadPoolExecutor(max_workers=n) as pool:
        return [f.result(timeout=60) for f in [pool.submit(task, i) for i in range(n)]]


class TestConcurrentPlanCache:
    def test_plan_built_exactly_once(self, engine, graph):
        x = np.ones(graph.n_cols)
        _fan_out(lambda i: engine.run(graph, x))
        stats = engine.plan_cache_stats
        assert stats["misses"] == 1, f"plan built {stats['misses']} times"
        assert stats["hits"] == N_THREADS - 1
        assert stats["size"] == 1

    def test_all_threads_share_one_plan(self, engine, graph):
        plans = _fan_out(lambda i: engine.plan(graph))
        assert all(p is plans[0] for p in plans)

    def test_symbolic_built_once_and_shared(self, engine, graph):
        plan = engine.plan(graph)
        p = engine.config.n_cores
        symbolics = _fan_out(lambda i: plan.step2_symbolic(p))
        assert all(s is symbolics[0] for s in symbolics)


class TestConcurrentBitIdentity:
    def test_concurrent_runs_bit_identical(self, engine, graph):
        rng = np.random.default_rng(3)
        xs = [rng.uniform(size=graph.n_cols) for _ in range(N_THREADS)]
        expected = [engine.run(graph, x)[0] for x in xs]
        results = _fan_out(lambda i: engine.run(graph, xs[i])[0])
        for got, want in zip(results, expected):
            assert np.array_equal(got, want)

    def test_concurrent_run_many_bit_identical(self, engine, graph):
        rng = np.random.default_rng(4)
        blocks = [rng.uniform(size=(graph.n_cols, 3)) for _ in range(N_THREADS)]
        expected = [engine.run_many(graph, X)[0] for X in blocks]
        results = _fan_out(lambda i: engine.run_many(graph, blocks[i])[0])
        for got, want in zip(results, expected):
            assert np.array_equal(got, want)

    def test_mixed_matrices_under_concurrency(self, engine):
        graphs = [
            erdos_renyi_graph(n_nodes=400, avg_degree=3.0, seed=s) for s in range(4)
        ]
        xs = [np.ones(g.n_cols) for g in graphs]
        expected = [engine.run(g, x)[0] for g, x in zip(graphs, xs)]

        def run(i):
            j = i % len(graphs)
            return j, engine.run(graphs[j], xs[j])[0]

        for j, got in _fan_out(run, n=12):
            assert np.array_equal(got, expected[j])
        assert engine.plan_cache_stats["size"] == len(graphs)


class TestConcurrentVerify:
    def test_reference_cache_survives_concurrent_eviction(self, engine):
        # More distinct vectors than the cache holds, revisited by every
        # thread in a different order: lookups, hits and evictions race.
        small = erdos_renyi_graph(n_nodes=200, avg_degree=3.0, seed=8)
        n_x = twostep._REFERENCE_CACHE_CAPACITY + 8
        xs = [np.full(small.n_cols, float(i + 1)) for i in range(n_x)]
        twostep.clear_reference_cache()

        def verify_all(i):
            order = np.random.default_rng(i).permutation(10 * n_x) % n_x
            return [engine.run(small, xs[j], verify=True).verified for j in order]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            results = _fan_out(verify_all, n=8)
        finally:
            sys.setswitchinterval(interval)
            twostep.clear_reference_cache()
        assert all(v is True for per_thread in results for v in per_thread)
