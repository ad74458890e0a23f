"""Serving layer: micro-batching, registry, server core, HTTP frontend.

The load-bearing guarantee is bit-identity: every served result must
equal a direct ``engine.run`` on the same matrix and vector, bit for
bit, no matter how requests were coalesced.  Tests drive the asyncio
server in-process with ``asyncio.run`` (no pytest-asyncio dependency).
"""

import asyncio
import json
import sys
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core.config import TwoStepConfig
from repro.faults.errors import (
    ConfigurationError,
    DeadlineExceededError,
    FaultError,
    InjectedFault,
    InvalidVectorError,
    OverloadedError,
    QuotaExceededError,
    UnknownMatrixError,
)
from repro.faults.injection import ANY_INDEX, FaultPlan, FaultSpec, inject_faults
from repro.generators import erdos_renyi_graph
from repro.serving import (
    BatchPolicy,
    Deadline,
    MatrixRegistry,
    MicroBatcher,
    ResiliencePolicy,
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

    def __call__(self, key, X, deadline, inline):
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

    def test_one_engine_per_tenant(self, graph):
        registry = MatrixRegistry(TwoStepConfig(backend="reference"))
        engine = registry.engine("b")
        assert registry.engine("b") is engine
        registry.engine("a")
        assert [tenant for tenant, _engine in registry.engines()] == ["a", "b"]
        assert engine.config.backend == "reference"

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

        def execute(key, X, deadline, inline):
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
            lambda key, X, deadline, inline: X,
            BatchPolicy(max_batch=64, max_delay_s=5.0),
            metrics=metrics,
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

        def execute(key, X, deadline, inline):
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

        def execute(key, X, deadline, inline):
            if X[0, 0] < 0:  # the gated first batch
                started.set()
                release.wait(timeout=5)
            return X

        batcher = MicroBatcher(execute, BatchPolicy(max_batch=4, max_delay_s=5.0))

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

        def execute(key, X, deadline, inline):
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

        def execute(key, X, deadline, inline):
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
        def execute(key, X, deadline, inline):
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


class _Recorder:
    """A batcher ``execute`` that records the thread and width of each batch."""

    def __init__(self, sleep_s: float = 0.0):
        self.sleep_s = sleep_s
        self.calls = []  # (thread ident, X)

    def __call__(self, key, X, deadline, inline):
        self.calls.append((threading.get_ident(), X.copy()))
        if self.sleep_s:
            time.sleep(self.sleep_s)
        return X * 2.0

    def threads(self):
        return [ident for ident, _X in self.calls]


class TestInlineRouting:
    """A lone request on a warm lane of an idle server runs on the loop
    thread; every other batch runs on the executor."""

    POLICY = BatchPolicy(max_batch=64, max_delay_s=0.01)

    def test_first_batch_on_executor_then_inline(self):
        execute = _Recorder()
        batcher = MicroBatcher(execute, self.POLICY)

        async def main():
            first = await batcher.submit("k", np.ones(2))
            second = await batcher.submit("k", np.full(2, 3.0))
            return threading.get_ident(), first, second

        loop_thread, first, second = asyncio.run(main())
        assert execute.threads()[0] != loop_thread  # no estimate yet
        assert execute.threads()[1] == loop_thread
        assert batcher.inline == 1
        np.testing.assert_array_equal(first.y, np.full(2, 2.0))
        np.testing.assert_array_equal(second.y, np.full(2, 6.0))

    def test_inline_result_bit_identical_to_engine_run(self, graph):
        server = SpMVServer(policy=BatchPolicy(max_delay_s=0.05))
        fp = server.register(graph)
        engine = server.registry.engine()
        threads = []
        original = engine.run_many

        def recording(matrix, X, **kwargs):
            threads.append(threading.get_ident())
            return original(matrix, X, **kwargs)

        engine.run_many = recording
        rng = np.random.default_rng(11)
        xs = [rng.uniform(-1.0, 1.0, size=graph.n_cols) for _ in range(4)]

        async def main():
            results = [await server.submit(fp, x) for x in xs]
            await server.shutdown()
            return threading.get_ident(), results

        loop_thread, results = asyncio.run(main())
        assert threads[0] != loop_thread
        assert threads[1:] == [loop_thread] * 3
        assert server.stats()["queue"]["inline"] == 3
        for x, result in zip(xs, results):  # both routes
            assert result.y.tobytes() == engine.run(graph, x).y.tobytes()

    def test_cold_first_batch_does_not_keep_lane_off_the_loop(self):
        """The first batch's time (a plan build, say) is replaced by the
        lane's second sample, not averaged with it."""
        policy = BatchPolicy(max_batch=64, max_delay_s=0.01)
        threads = []

        def execute(key, X, deadline, inline):
            if not threads:
                time.sleep(5 * policy.max_delay_s)
            threads.append(threading.get_ident())
            return X

        batcher = MicroBatcher(execute, policy)

        async def main():
            for _ in range(4):
                await batcher.submit("k", np.ones(2))
            return threading.get_ident()

        loop_thread = asyncio.run(main())
        assert loop_thread not in threads[:2]
        assert threads[2:] == [loop_thread] * 2
        assert batcher.inline == 2

    def test_concurrent_cold_batches_do_not_keep_lane_off_the_loop(self):
        """Two cold batches running at once both pay the plan build; the
        first warm sample replaces them, so the next lone request runs
        inline."""
        policy = BatchPolicy(max_batch=4, max_delay_s=0.01)
        threads = []

        def execute(key, X, deadline, inline):
            if X.shape[1] == policy.max_batch:  # the cold burst
                time.sleep(5 * policy.max_delay_s)
            threads.append(threading.get_ident())
            return X

        batcher = MicroBatcher(execute, policy)

        async def main():
            await asyncio.gather(*(batcher.submit("k", np.ones(2)) for _ in range(8)))
            for _ in range(2):
                await batcher.submit("k", np.ones(2))
            return threading.get_ident()

        loop_thread = asyncio.run(main())
        assert loop_thread not in threads[:3]
        assert threads[3] == loop_thread
        assert batcher.inline == 1

    def test_same_tick_burst_runs_on_executor(self):
        execute = _Recorder()
        batcher = MicroBatcher(execute, self.POLICY)

        async def main():
            await batcher.submit("k", np.ones(2))  # warm the lane
            await asyncio.gather(*(batcher.submit("k", np.ones(2)) for _ in range(4)))
            return threading.get_ident()

        loop_thread = asyncio.run(main())
        assert [X.shape[1] for _t, X in execute.calls] == [1, 4]
        assert loop_thread not in execute.threads()
        assert batcher.inline == 0

    def test_request_while_another_lane_in_flight_runs_on_executor(self):
        started, release = threading.Event(), threading.Event()
        calls = []

        def execute(key, X, deadline, inline):
            calls.append((key, threading.get_ident()))
            if key == "busy":
                started.set()
                release.wait(timeout=5)
            return X

        batcher = MicroBatcher(execute, BatchPolicy(max_batch=64, max_delay_s=0.01))

        async def main():
            await batcher.submit("k", np.ones(2))  # warm the lane
            busy = asyncio.ensure_future(batcher.submit("busy", np.ones(2)))
            while not started.is_set():
                await asyncio.sleep(0.001)
            await asyncio.wait_for(batcher.submit("k", np.ones(2)), 1.0)
            release.set()
            await busy
            return threading.get_ident()

        loop_thread = asyncio.run(main())
        assert [key for key, _t in calls] == ["k", "busy", "k"]
        assert loop_thread not in [ident for _k, ident in calls]
        assert batcher.inline == 0

    def test_slow_lane_stays_on_executor(self):
        policy = BatchPolicy(max_batch=64, max_delay_s=0.005)
        execute = _Recorder(sleep_s=3 * policy.max_delay_s)
        batcher = MicroBatcher(execute, policy)

        async def main():
            for _ in range(4):
                await batcher.submit("k", np.ones(2))
            return threading.get_ident()

        loop_thread = asyncio.run(main())
        assert len(execute.calls) == 4
        assert loop_thread not in execute.threads()
        assert batcher.inline == 0

    def test_cancelled_and_expired_members_triaged_before_inline_run(self):
        execute = _Recorder()
        batcher = MicroBatcher(execute, self.POLICY)

        async def main():
            await batcher.submit("k", np.ones(2))  # warm the lane
            live = asyncio.ensure_future(batcher.submit("k", np.full(2, 5.0)))
            doomed = asyncio.ensure_future(
                batcher.submit("k", np.full(2, 7.0), deadline=Deadline.from_budget(0.02))
            )
            gone = asyncio.ensure_future(batcher.submit("k", np.full(2, 9.0)))
            await asyncio.sleep(0)  # all three queued; the batch is not formed
            gone.cancel()
            time.sleep(0.05)  # stall the loop past the deadline
            result = await live
            with pytest.raises(DeadlineExceededError):
                await doomed
            return threading.get_ident(), result

        loop_thread, result = asyncio.run(main())
        ident, X = execute.calls[1]
        assert ident == loop_thread  # one live member left: inline
        np.testing.assert_array_equal(X, np.full((2, 1), 5.0))
        np.testing.assert_array_equal(result.y, np.full(2, 10.0))
        assert (batcher.expired, batcher.cancelled, batcher.inline) == (1, 1, 1)
        assert batcher.in_flight == 0


class TestInlineFaults:
    """A fault on an inline attempt finishes the batch on the executor:
    no retry backoff ever sleeps on the loop thread."""

    RETRY_BASE_S = 0.1

    @pytest.mark.parametrize(
        "times, retries",
        [(1, 1), (3, 2), (-1, 2)],
        ids=["retry-recovers", "budget-spent", "always-failing"],
    )
    def test_fault_on_inline_attempt(self, graph, times, retries):
        server = SpMVServer(
            policy=BatchPolicy(max_delay_s=0.05),
            resilience=ResiliencePolicy(
                max_retries=2,
                retry_base_s=self.RETRY_BASE_S,
                retry_jitter=0.0,
                breaker_threshold=10,
            ),
        )
        fp = server.register(graph)
        x = np.random.default_rng(4).uniform(size=graph.n_cols)

        async def main():
            await server.submit(fp, x)  # the lane's first batch: executor
            stalls = []
            running = True

            async def ticker():
                last = time.perf_counter()
                while running:
                    await asyncio.sleep(0.001)
                    now = time.perf_counter()
                    stalls.append(now - last)
                    last = now

            tick = asyncio.ensure_future(ticker())
            await asyncio.sleep(0.01)
            plan = FaultPlan(
                FaultSpec(site="executor", kind="raise", index=ANY_INDEX, times=times)
            )
            with inject_faults(plan):
                try:
                    outcome = await asyncio.wait_for(server.submit(fp, x), 5.0)
                except FaultError as exc:
                    outcome = exc
            running = False
            await tick
            await server.shutdown()
            return outcome, max(stalls)

        outcome, worst_stall = asyncio.run(main())
        assert worst_stall < self.RETRY_BASE_S, worst_stall
        assert server.stats()["queue"]["inline"] == 1
        resilience = server.stats()["resilience"]
        # The inline attempt counts against the retry budget of 2.
        assert resilience["retries"] == retries
        if times != 1:
            assert isinstance(outcome, InjectedFault)
        else:
            direct = server.registry.engine().run(graph, x).y
            assert outcome.y.tobytes() == direct.tobytes()


    def test_zero_backoff_retry_still_leaves_the_loop(self, graph):
        server = SpMVServer(
            policy=BatchPolicy(max_delay_s=0.05),
            resilience=ResiliencePolicy(max_retries=1, retry_base_s=0.0),
        )
        fp = server.register(graph)
        engine = server.registry.engine()
        original = engine.run_many
        threads = []

        def flaky(matrix, X, **kwargs):
            threads.append(threading.get_ident())
            if len(threads) == 2:  # the lane's first inline attempt
                raise RuntimeError("transient")
            return original(matrix, X, **kwargs)

        engine.run_many = flaky
        x = np.ones(graph.n_cols)

        async def main():
            await server.submit(fp, x)  # the lane's first batch: executor
            result = await server.submit(fp, x)
            await server.shutdown()
            return threading.get_ident(), result

        loop_thread, result = asyncio.run(main())
        assert threads[1] == loop_thread  # the inline attempt
        assert threads[2] != loop_thread  # its retry, offloaded
        assert result.y.tobytes() == engine.run(graph, x).y.tobytes()


class TestColumnMajorBatches:
    """A batch reaches ``execute`` column-major with request ``j`` in
    column ``j``, and every served ``y`` is a contiguous row holding
    ``engine.run``'s bytes, on each route a batch can take."""

    def test_layout_and_bytes_on_every_route(self, graph):
        server = SpMVServer(
            policy=BatchPolicy(max_delay_s=0.05),
            resilience=ResiliencePolicy(max_retries=1, retry_base_s=0.0),
        )
        fp = server.register(graph)
        engine = server.registry.engine()
        original = engine.run_many
        calls = []  # (thread ident, X copy, X column-major) per attempt

        def recording(matrix, X, **kwargs):
            calls.append((threading.get_ident(), X.copy(), X.flags.f_contiguous))
            if len(calls) == 4:  # the second inline attempt
                raise RuntimeError("transient")
            return original(matrix, X, **kwargs)

        engine.run_many = recording
        rng = np.random.default_rng(8)
        xs = [rng.uniform(-1.0, 1.0, size=graph.n_cols) for _ in range(7)]
        for x in xs:
            x[::5] = -0.0

        async def main():
            first = await server.submit(fp, xs[0])  # a cold lane: executor
            burst = await asyncio.gather(*(server.submit(fp, x) for x in xs[1:5]))
            inline = await server.submit(fp, xs[5])
            offloaded = await server.submit(fp, xs[6])  # fails inline
            await server.shutdown()
            return threading.get_ident(), [first, *burst, inline, offloaded]

        loop_thread, results = asyncio.run(main())
        on_loop = [ident == loop_thread for ident, _X, _f in calls]
        assert on_loop == [False, False, True, True, False]
        assert all(f_contiguous for _i, _X, f_contiguous in calls)
        assert server.stats()["queue"]["inline"] == 2
        burst_X = calls[1][1]
        assert burst_X.shape == (graph.n_cols, 4)
        for j in range(4):
            assert burst_X[:, j].tobytes() == xs[1 + j].tobytes()
        for x, result in zip(xs, results):
            assert result.y.flags.c_contiguous
            assert result.y.tobytes() == engine.run(graph, x).y.tobytes()


class TestTwoWorkers:
    """The default pool has two workers, so two full batches of one lane
    execute at once; they stay byte-correct and the server's counters
    stay exact."""

    def test_two_batches_of_one_lane_run_at_once(self):
        graph = erdos_renyi_graph(n_nodes=1500, avg_degree=4.0, seed=5)
        server = SpMVServer()
        fp = server.register(graph)
        engine = server.registry.engine()
        original = engine.run_many
        both_inside = threading.Barrier(2, timeout=5)
        threads = []

        def run_many(matrix, X, **kwargs):
            threads.append(threading.current_thread().name)
            both_inside.wait()  # times out unless the other batch runs too
            return original(matrix, X, **kwargs)

        engine.run_many = run_many
        rng = np.random.default_rng(12)
        width = server.policy.max_batch
        xs = [rng.uniform(-1.0, 1.0, size=graph.n_cols) for _ in range(2 * width)]

        async def main():
            results = await asyncio.gather(*(server.submit(fp, x) for x in xs))
            await server.shutdown()
            return results

        results = asyncio.run(main())
        assert [r.batch_size for r in results] == [width] * (2 * width)
        for x, result in zip(xs, results):
            assert result.y.tobytes() == engine.run(graph, x).y.tobytes()
        assert len(set(threads)) == 2
        assert all(name.startswith("spmv-batch") for name in threads)
        stats = server.stats()
        assert stats["resilience"]["breakers"][f"default/{fp}"] == {
            "state": "closed",
            "consecutive_failures": 0,
            "opens": 0,
        }
        (served,) = stats["registry"]["tenants"]["default"]["matrices"]
        assert (served["requests_served"], served["batches_served"]) == (2 * width, 2)

    def test_served_counters_exact_under_thread_switching(self):
        graph = erdos_renyi_graph(n_nodes=200, avg_degree=3.0, seed=6)
        server = SpMVServer(policy=BatchPolicy(max_batch=2))
        fp = server.register(graph)
        xs = [np.full(graph.n_cols, float(i)) for i in range(200)]

        async def main():
            for _wave in range(3):  # 100 full batches each, inside the tenant quota
                await asyncio.gather(*(server.submit(fp, x) for x in xs))
            await server.shutdown()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            asyncio.run(main())
        finally:
            sys.setswitchinterval(interval)
        stats = server.stats()
        (served,) = stats["registry"]["tenants"]["default"]["matrices"]
        assert stats["queue"]["batches"] == 300
        assert (served["requests_served"], served["batches_served"]) == (600, 300)


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

    def test_unregister_and_eviction_drop_breakers_and_lanes(self):
        server = SpMVServer(quotas=TenantQuotas(max_matrices=2))
        graphs = [
            erdos_renyi_graph(n_nodes=200, avg_degree=3.0, seed=s) for s in range(6)
        ]
        x = np.ones(200)

        async def main():
            for g in graphs[:3]:  # register -> submit -> unregister, three times
                fp = server.register(g)
                await server.submit(fp, x)
                server.unregister(fp)
            kept = []
            for g in graphs[3:]:  # the third registration evicts the first
                kept.append(server.register(g))
                await server.submit(kept[-1], x)
            await server.shutdown()
            return kept[1:]

        kept = asyncio.run(main())
        assert server.registry.evictions == 1
        breakers = server.stats()["resilience"]["breakers"]
        assert sorted(breakers) == sorted(f"default/{fp}" for fp in kept)
        assert sorted(server._batcher._lanes) == sorted(("default", fp) for fp in kept)

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
            status, stats = await asyncio.to_thread(_request, port, "GET", "/stats")
            assert status == 200
            queue = json.loads(stats)["queue"]
            # One lone request on a cold lane: no estimate yet, so not inline.
            assert queue["inline"] == 0
            assert queue["by_trigger"]["idle"] == 1
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
