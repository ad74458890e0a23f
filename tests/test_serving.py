"""Serving layer: micro-batching, registry, server core, HTTP frontend.

The load-bearing guarantee is bit-identity: every served result must
equal a direct ``engine.run`` on the same matrix and vector, bit for
bit, no matter how requests were coalesced.  Tests drive the asyncio
server in-process with ``asyncio.run`` (no pytest-asyncio dependency).
"""

import asyncio
import json
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.faults.errors import (
    ConfigurationError,
    InvalidVectorError,
    OverloadedError,
    QuotaExceededError,
    UnknownMatrixError,
)
from repro.generators import erdos_renyi_graph
from repro.serving import (
    BatchPolicy,
    MatrixRegistry,
    MicroBatcher,
    SpMVServer,
    TenantQuotas,
    matrix_fingerprint,
    run_open_loop,
)
from repro.serving.http import HTTPServingFrontend
from repro.telemetry import MetricsRegistry


@pytest.fixture(scope="module")
def graph():
    return erdos_renyi_graph(n_nodes=1200, avg_degree=4.0, seed=3)


@pytest.fixture
def server(graph):
    srv = SpMVServer(
        policy=BatchPolicy(max_batch=16, max_delay_s=0.002, max_queue=256)
    )
    srv.register(graph)
    return srv


def _fp(graph):
    return matrix_fingerprint(graph)


class _Gate:
    """A batcher ``execute`` whose batches block until released.

    Holds a lane busy, so later requests queue behind a running batch.
    """

    def __init__(self):
        self.started = threading.Event()
        self.release = threading.Event()
        self.sizes = []

    def __call__(self, key, X):
        self.sizes.append(X.shape[1])
        self.started.set()
        self.release.wait(timeout=5)
        return X

    async def running(self):
        """Wait until the first batch is blocked in the executor."""
        while not self.started.is_set():
            await asyncio.sleep(0.001)


# ----------------------------------------------------------------------
# Fingerprints and registry
# ----------------------------------------------------------------------


class TestFingerprint:
    def test_deterministic(self, graph):
        assert matrix_fingerprint(graph) == matrix_fingerprint(graph)

    def test_content_sensitive(self, graph):
        other = erdos_renyi_graph(n_nodes=1200, avg_degree=4.0, seed=4)
        assert matrix_fingerprint(graph) != matrix_fingerprint(other)


class TestRegistry:
    def test_register_is_idempotent(self, graph):
        registry = MatrixRegistry()
        assert registry.register(graph) == registry.register(graph)
        assert len(registry.stats()["tenants"]["default"]["matrices"]) == 1

    def test_unknown_fingerprint_raises(self):
        registry = MatrixRegistry()
        with pytest.raises(UnknownMatrixError):
            registry.get("deadbeef")

    def test_lru_eviction_drops_plan(self, graph):
        registry = MatrixRegistry(quotas=TenantQuotas(max_matrices=2))
        engine = registry.engine()
        graphs = [
            erdos_renyi_graph(n_nodes=200, avg_degree=3.0, seed=s) for s in range(3)
        ]
        x = np.ones(200)
        fps = []
        for g in graphs:
            fps.append(registry.register(g))
            engine.run(g, x)  # populate the plan cache
        # Third registration evicted the first (LRU) matrix.
        assert registry.evictions == 1
        with pytest.raises(UnknownMatrixError):
            registry.get(fps[0])
        registry.get(fps[1])
        registry.get(fps[2])

    def test_tenants_are_isolated(self, graph):
        registry = MatrixRegistry()
        fp = registry.register(graph, tenant="a")
        with pytest.raises(UnknownMatrixError):
            registry.get(fp, tenant="b")
        assert registry.engine("a") is not registry.engine("b")

    def test_quota_validation(self):
        with pytest.raises(ConfigurationError):
            TenantQuotas(max_matrices=0)


# ----------------------------------------------------------------------
# Micro-batching
# ----------------------------------------------------------------------


class TestBatchPolicy:
    def test_rejects_bad_values(self):
        with pytest.raises(ConfigurationError):
            BatchPolicy(max_batch=0)
        with pytest.raises(ConfigurationError):
            BatchPolicy(max_delay_s=-1.0)
        with pytest.raises(ConfigurationError):
            BatchPolicy(max_queue=0)


class TestMicroBatcher:
    def test_coalesces_to_max_batch(self):
        batches = []

        def execute(key, X):
            batches.append(X.shape[1])
            return X * 2.0

        batcher = MicroBatcher(execute, BatchPolicy(max_batch=4, max_delay_s=0.05))

        async def main():
            xs = [np.full(3, float(i)) for i in range(8)]
            return await asyncio.gather(*(batcher.submit("k", x) for x in xs))

        results = asyncio.run(main())
        assert batches == [4, 4]
        for i, r in enumerate(results):
            assert r.batch_size == 4
            np.testing.assert_array_equal(r.y, np.full(3, 2.0 * i))

    def test_delay_flush_for_partial_batch(self):
        gate = _Gate()
        batcher = MicroBatcher(gate, BatchPolicy(max_batch=64, max_delay_s=0.005))

        async def main():
            first = asyncio.ensure_future(batcher.submit("k", np.ones(2)))
            await gate.running()  # the lane is busy
            second = asyncio.ensure_future(batcher.submit("k", np.ones(2)))
            await asyncio.sleep(0.05)  # the timer fires behind the busy lane
            gate.release.set()
            return await asyncio.gather(first, second)

        _, result = asyncio.run(main())
        assert result.batch_size == 1
        assert result.queued_s >= 0.004  # waited out max_delay_s
        assert batcher.by_trigger == {"idle": 1, "full": 0, "timer": 1, "drain": 0}

    def test_lone_request_on_idle_lane_skips_the_timer(self):
        metrics = MetricsRegistry()
        batcher = MicroBatcher(
            lambda key, X: X, BatchPolicy(max_batch=64, max_delay_s=5.0), metrics=metrics
        )

        async def main():
            return await asyncio.wait_for(batcher.submit("k", np.ones(2)), 1.0)

        result = asyncio.run(main())
        assert result.batch_size == 1
        assert result.queued_s < 0.5
        assert batcher.by_trigger["idle"] == 1
        assert metrics.value("serving_batches_total", {"trigger": "idle"}) == 1.0

    def test_same_tick_burst_forms_one_batch(self):
        sizes = []

        def execute(key, X):
            sizes.append(X.shape[1])
            return X

        batcher = MicroBatcher(execute, BatchPolicy(max_batch=64, max_delay_s=5.0))

        async def main():
            burst = asyncio.gather(*(batcher.submit("k", np.ones(2)) for _ in range(8)))
            return await asyncio.wait_for(burst, 1.0)

        results = asyncio.run(main())
        assert sizes == [8]
        assert all(r.batch_size == 8 for r in results)
        assert batcher.by_trigger["idle"] == 1

    def test_requests_behind_busy_lane_flush_when_it_finishes(self):
        gate = _Gate()
        batcher = MicroBatcher(gate, BatchPolicy(max_batch=64, max_delay_s=5.0))

        async def main():
            first = asyncio.ensure_future(batcher.submit("k", np.ones(2)))
            await gate.running()
            behind = []
            for _ in range(3):  # arrive in separate ticks while the lane is busy
                behind.append(asyncio.ensure_future(batcher.submit("k", np.ones(2))))
                await asyncio.sleep(0.001)
            gate.release.set()
            return await asyncio.wait_for(asyncio.gather(first, *behind), 1.0)

        results = asyncio.run(main())
        assert gate.sizes == [1, 3]
        assert [r.batch_size for r in results] == [1, 3, 3, 3]
        assert batcher.by_trigger == {"idle": 2, "full": 0, "timer": 0, "drain": 0}

    def test_full_batch_behind_busy_lane_dispatches_immediately(self):
        started, release = threading.Event(), threading.Event()

        def execute(key, X):
            if X[0, 0] < 0:  # the gated first batch
                started.set()
                release.wait(timeout=5)
            return X

        batcher = MicroBatcher(
            execute, BatchPolicy(max_batch=4, max_delay_s=5.0, workers=2)
        )

        async def main():
            first = asyncio.ensure_future(batcher.submit("k", -np.ones(2)))
            while not started.is_set():  # the first batch is executing, blocked
                await asyncio.sleep(0.001)
            full = asyncio.gather(*(batcher.submit("k", np.ones(2)) for _ in range(4)))
            # Completes while the first batch still holds the lane busy.
            results = await asyncio.wait_for(full, 1.0)
            assert not first.done()
            release.set()
            await first
            return results

        results = asyncio.run(main())
        assert all(r.batch_size == 4 for r in results)
        assert batcher.by_trigger == {"idle": 1, "full": 1, "timer": 0, "drain": 0}

    def test_flush_behind_busy_lane_counts_as_drain(self):
        gate = _Gate()
        batcher = MicroBatcher(gate, BatchPolicy(max_batch=64, max_delay_s=5.0))

        async def main():
            first = asyncio.ensure_future(batcher.submit("k", np.ones(2)))
            await gate.running()
            second = asyncio.ensure_future(batcher.submit("k", np.ones(2)))
            await asyncio.sleep(0)
            flushed = asyncio.ensure_future(batcher.flush())
            await asyncio.sleep(0.01)
            gate.release.set()
            await asyncio.wait_for(asyncio.gather(first, second, flushed), 1.0)

        asyncio.run(main())
        assert gate.sizes == [1, 1]
        assert batcher.by_trigger == {"idle": 1, "full": 0, "timer": 0, "drain": 1}

    def test_drain_awaits_running_batch_without_spinning(self):
        gate = _Gate()
        batcher = MicroBatcher(gate, BatchPolicy(max_batch=64, max_delay_s=5.0))
        flushes = 0
        original = batcher.flush

        async def counting_flush(key=None):
            nonlocal flushes
            flushes += 1
            await original(key)

        batcher.flush = counting_flush

        async def main():
            request = asyncio.ensure_future(batcher.submit("k", np.ones(2)))
            await gate.running()
            drained = asyncio.ensure_future(batcher.drain())
            await asyncio.sleep(0.1)  # drain is blocked behind the gated batch
            blocked_flushes = flushes
            gate.release.set()
            await asyncio.wait_for(asyncio.gather(request, drained), 1.0)
            return blocked_flushes

        assert asyncio.run(main()) <= 2
        assert batcher.in_flight == 0

    def test_lanes_do_not_mix(self):
        seen = {}

        def execute(key, X):
            seen.setdefault(key, 0)
            seen[key] += X.shape[1]
            return X

        batcher = MicroBatcher(execute, BatchPolicy(max_batch=2, max_delay_s=0.005))

        async def main():
            await asyncio.gather(
                batcher.submit("a", np.ones(1)),
                batcher.submit("a", np.ones(1)),
                batcher.submit("b", np.ones(1)),
            )

        asyncio.run(main())
        assert seen == {"a": 2, "b": 1}

    def test_overload_sheds_immediately(self):
        release = None

        def execute(key, X):
            release.wait(timeout=5)
            return X

        import threading

        release = threading.Event()
        batcher = MicroBatcher(
            execute, BatchPolicy(max_batch=1, max_delay_s=0.0, max_queue=2)
        )

        async def main():
            t1 = asyncio.ensure_future(batcher.submit("k", np.ones(1)))
            t2 = asyncio.ensure_future(batcher.submit("k", np.ones(1)))
            await asyncio.sleep(0.01)  # both now in flight
            with pytest.raises(OverloadedError) as excinfo:
                await batcher.submit("k", np.ones(1))
            assert excinfo.value.limit == 2
            assert batcher.shed == 1
            release.set()
            await asyncio.gather(t1, t2)

        asyncio.run(main())
        assert batcher.in_flight == 0

    def test_execute_failure_propagates_to_every_future(self):
        def execute(key, X):
            raise RuntimeError("kaboom")

        batcher = MicroBatcher(execute, BatchPolicy(max_batch=2, max_delay_s=0.0))

        async def main():
            results = await asyncio.gather(
                batcher.submit("k", np.ones(1)),
                batcher.submit("k", np.ones(1)),
                return_exceptions=True,
            )
            assert all(isinstance(r, RuntimeError) for r in results)

        asyncio.run(main())
        assert batcher.in_flight == 0


# ----------------------------------------------------------------------
# Server core
# ----------------------------------------------------------------------


class TestServer:
    def test_hundred_concurrent_requests_bit_identical(self, server, graph):
        """The CI smoke contract: 100 concurrent requests, coalesced into
        batches, every result bit-identical to a direct engine.run."""
        rng = np.random.default_rng(7)
        xs = [rng.uniform(size=graph.n_cols) for _ in range(100)]
        fp = _fp(graph)

        async def main():
            results = await asyncio.gather(
                *(server.submit(fp, x) for x in xs)
            )
            await server.close()
            return results

        results = asyncio.run(main())
        engine = server.registry.engine()
        coalesced = False
        for x, result in zip(xs, results):
            direct, _ = engine.run(graph, x)
            assert np.array_equal(result.y, direct), "served result not bit-identical"
            coalesced = coalesced or result.batch_size > 1
        assert coalesced, "no request was ever coalesced"
        stats = server.stats()
        assert stats["queue"]["coalesced"] == 100
        assert stats["queue"]["batches"] < 100  # batching actually happened

    def test_unknown_fingerprint(self, server):
        async def main():
            with pytest.raises(UnknownMatrixError):
                await server.submit("deadbeef", np.ones(4))

        asyncio.run(main())

    def test_wrong_shape_rejected(self, server, graph):
        async def main():
            with pytest.raises(InvalidVectorError):
                await server.submit(_fp(graph), np.ones(graph.n_cols + 1))

        asyncio.run(main())

    def test_tenant_quota_sheds(self, graph, gate_engine):
        server = SpMVServer(
            policy=BatchPolicy(max_batch=64, max_delay_s=0.05, max_queue=1024),
            quotas=TenantQuotas(max_inflight=2),
        )
        fp = server.register(graph)
        x = np.ones(graph.n_cols)
        started, release = gate_engine(server)

        async def main():
            # One request executing behind the gate, one queued behind it.
            tasks = [asyncio.ensure_future(server.submit(fp, x))]
            while not started.is_set():
                await asyncio.sleep(0.001)
            tasks.append(asyncio.ensure_future(server.submit(fp, x)))
            await asyncio.sleep(0.01)
            with pytest.raises(QuotaExceededError) as excinfo:
                await server.submit(fp, x)
            assert excinfo.value.tenant == "default"
            release.set()
            await asyncio.gather(*tasks)
            await server.close()

        asyncio.run(main())

    def test_health_stats_metrics(self, server, graph):
        async def main():
            await server.submit(_fp(graph), np.ones(graph.n_cols))
            await server.close()

        asyncio.run(main())
        health = server.health()
        assert health["status"] == "ok"
        assert health["queue_depth"] == 0
        stats = server.stats()
        assert stats["queue"]["coalesced"] >= 1
        assert stats["registry"]["tenants"]["default"]["plan_cache"]["size"] >= 1
        text = server.prometheus()
        assert "serving_requests_total" in text
        assert "serving_batch_size" in text
        backend = stats["backend"]
        assert set(backend) == {"configured", "runs_total", "spgemm_runs_total"}
        assert backend["configured"] == "vectorized"
        assert any(
            "backend=" in key for key in backend["runs_total"]
        ), backend["runs_total"]

    def test_stats_report_batches_by_trigger(self, server, graph):
        async def main():
            await server.submit(_fp(graph), np.ones(graph.n_cols))
            await server.close()

        asyncio.run(main())
        queue = server.stats()["queue"]
        assert queue["by_trigger"]["idle"] >= 1
        assert sum(queue["by_trigger"].values()) == queue["batches"]
        assert 'serving_batches_total{trigger="idle"}' in server.prometheus()

    def test_loadgen_open_loop(self, server, graph):
        rng = np.random.default_rng(0)
        xs = [rng.uniform(size=graph.n_cols) for _ in range(8)]

        async def main():
            report = await run_open_loop(
                server, _fp(graph), xs, offered_qps=400.0, n_requests=60
            )
            await server.close()
            return report

        report = asyncio.run(main())
        assert report.completed == 60
        assert report.rejected == 0
        assert report.p50_ms > 0
        assert report.p99_ms >= report.p50_ms


# ----------------------------------------------------------------------
# HTTP frontend
# ----------------------------------------------------------------------


def _request(port, method, path, body=None):
    data = json.dumps(body).encode() if body is not None else None
    req = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}", data=data, method=method
    )
    try:
        with urllib.request.urlopen(req, timeout=10) as resp:
            return resp.status, resp.read().decode()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read().decode()


class TestHTTPFrontend:
    def test_round_trip(self, graph):
        server = SpMVServer(policy=BatchPolicy(max_batch=8, max_delay_s=0.001))
        rng = np.random.default_rng(5)
        x = rng.uniform(size=graph.n_cols)

        async def main():
            frontend = HTTPServingFrontend(server, port=0)
            await frontend.start()
            port = frontend.port

            # Register over HTTP.
            status, body = await asyncio.to_thread(
                _request, port, "POST", "/v1/matrices",
                {
                    "n_rows": graph.n_rows,
                    "n_cols": graph.n_cols,
                    "rows": graph.rows.tolist(),
                    "cols": graph.cols.tolist(),
                    "vals": graph.vals.tolist(),
                },
            )
            assert status == 200
            fp = json.loads(body)["fingerprint"]
            assert fp == matrix_fingerprint(graph)

            status, body = await asyncio.to_thread(
                _request, port, "POST", "/v1/spmv",
                {"fingerprint": fp, "x": x.tolist()},
            )
            assert status == 200
            payload = json.loads(body)

            status, health = await asyncio.to_thread(_request, port, "GET", "/health")
            assert status == 200 and json.loads(health)["status"] == "ok"
            status, metrics = await asyncio.to_thread(_request, port, "GET", "/metrics")
            assert status == 200 and "serving_requests_total" in metrics

            await frontend.stop()
            return payload

        payload = asyncio.run(main())
        direct, _ = server.registry.engine().run(graph, x)
        np.testing.assert_array_equal(np.array(payload["y"]), direct)

    def test_error_mapping(self, graph):
        server = SpMVServer()
        fp = server.register(graph)

        async def main():
            frontend = HTTPServingFrontend(server, port=0)
            await frontend.start()
            port = frontend.port
            results = {}
            results["unknown"] = await asyncio.to_thread(
                _request, port, "POST", "/v1/spmv",
                {"fingerprint": "deadbeef", "x": [1.0]},
            )
            results["bad_shape"] = await asyncio.to_thread(
                _request, port, "POST", "/v1/spmv",
                {"fingerprint": fp, "x": [1.0, 2.0]},
            )
            results["missing_field"] = await asyncio.to_thread(
                _request, port, "POST", "/v1/spmv", {"x": [1.0]}
            )
            results["bad_json"] = await asyncio.to_thread(
                _request, port, "GET", "/nope"
            )
            await frontend.stop()
            return results

        results = asyncio.run(main())
        assert results["unknown"][0] == 404
        assert results["bad_shape"][0] == 400
        assert results["missing_field"][0] == 400
        assert "fingerprint" in results["missing_field"][1]
        assert results["bad_json"][0] == 404

    def test_overload_maps_to_429(self, graph):
        import threading

        release = threading.Event()
        server = SpMVServer(
            policy=BatchPolicy(max_batch=1, max_delay_s=0.0, max_queue=1)
        )
        fp = server.register(graph)
        engine = server.registry.engine()
        original = engine.run_many

        def slow_run_many(matrix, X, **kwargs):
            release.wait(timeout=5)
            return original(matrix, X, **kwargs)

        engine.run_many = slow_run_many
        x = np.ones(graph.n_cols)

        async def main():
            frontend = HTTPServingFrontend(server, port=0)
            await frontend.start()
            port = frontend.port
            first = asyncio.ensure_future(server.submit(fp, x))
            await asyncio.sleep(0.01)
            status, body = await asyncio.to_thread(
                _request, port, "POST", "/v1/spmv",
                {"fingerprint": fp, "x": x.tolist()},
            )
            release.set()
            await first
            await frontend.stop()
            return status, body

        status, body = asyncio.run(main())
        assert status == 429
        payload = json.loads(body)
        assert payload["error"] == "overloaded"
        assert payload["limit"] == 1
