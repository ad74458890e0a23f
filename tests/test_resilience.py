"""Serving resilience: deadlines, cancellation, breakers, snapshots.

Covers the resilience layer end to end: deadline enforcement at
admission and batch formation, client-cancellation accounting, the
circuit breaker's closed/open/half-open lifecycle (an open lane
rejects; a probe that succeeds closes it, bit-identical to the oracle),
bounded jittered retries, fail-fast submission during shutdown, and crash-safe
registry snapshots (round-trip bit-identity, corruption quarantine).
Async tests drive the server in-process with ``asyncio.run``; tests
that must not hang bound themselves with ``asyncio.wait_for``.
"""

import asyncio
import json
import time
import urllib.error
import urllib.request

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import TwoStepConfig
from repro.faults.errors import (
    CircuitOpenError,
    ConfigurationError,
    DeadlineExceededError,
    InjectedFault,
    ServerClosedError,
    ServingError,
)
from repro.formats.coo import COOMatrix
from repro.generators import erdos_renyi_graph
from repro.serving import (
    BatchPolicy,
    CircuitBreaker,
    Deadline,
    MatrixRegistry,
    MicroBatcher,
    ResiliencePolicy,
    SnapshotStore,
    SpMVServer,
    matrix_fingerprint,
)
from repro.serving.http import HTTPServingFrontend
from repro.serving.resilience import (
    CIRCUIT_CLOSED,
    CIRCUIT_HALF_OPEN,
    CIRCUIT_OPEN,
    backoff_delays,
)


@pytest.fixture(scope="module")
def graph():
    return erdos_renyi_graph(n_nodes=800, avg_degree=4.0, seed=11)


def _oracle(graph, x):
    from repro.api import create_engine

    engine = create_engine(backend="reference")
    y, _ = engine.run(graph, x)
    return y


# ----------------------------------------------------------------------
# Policy and primitives
# ----------------------------------------------------------------------


class TestResiliencePolicy:
    def test_rejects_bad_values(self):
        with pytest.raises(ConfigurationError):
            ResiliencePolicy(default_deadline_s=0.0)
        with pytest.raises(ConfigurationError):
            ResiliencePolicy(breaker_threshold=0)
        with pytest.raises(ConfigurationError):
            ResiliencePolicy(max_retries=-1)
        with pytest.raises(ConfigurationError):
            ResiliencePolicy(retry_jitter=1.5)
        with pytest.raises(ConfigurationError):
            ResiliencePolicy(snapshot_interval_s=0.0)


class TestDeadline:
    def test_from_budget_counts_down(self):
        d = Deadline.from_budget(10.0)
        assert 0 < d.remaining() <= 10.0
        assert not d.expired

    def test_zero_budget_is_expired(self):
        assert Deadline.from_budget(0.0).expired

    def test_negative_budget_rejected(self):
        with pytest.raises(ConfigurationError):
            Deadline.from_budget(-1.0)

    def test_coerce(self):
        assert Deadline.coerce(None) is None
        d = Deadline.from_budget(1.0)
        assert Deadline.coerce(d) is d
        coerced = Deadline.coerce(0.5)
        assert isinstance(coerced, Deadline)
        assert coerced.budget_s == 0.5


class TestCircuitBreaker:
    def test_opens_after_threshold(self):
        policy = ResiliencePolicy(breaker_threshold=3, breaker_cooldown_s=60.0)
        breaker = CircuitBreaker(policy)
        for _ in range(2):
            breaker.record_failure()
            assert breaker.state == CIRCUIT_CLOSED
            breaker.admit("t", "fp")  # closed: no-op
        breaker.record_failure()
        assert breaker.state == CIRCUIT_OPEN
        # While open within the cooldown, the lane rejects.
        with pytest.raises(CircuitOpenError):
            breaker.admit("t", "fp")

    def test_half_open_probe_closes_on_success(self):
        policy = ResiliencePolicy(breaker_threshold=1, breaker_cooldown_s=0.01)
        breaker = CircuitBreaker(policy)
        breaker.record_failure()
        assert breaker.state == CIRCUIT_OPEN
        time.sleep(0.02)
        # Past the cooldown: admitted, and the lane is half-open.
        breaker.admit("t", "fp")
        assert breaker.state == CIRCUIT_HALF_OPEN
        breaker.record_success()
        assert breaker.state == CIRCUIT_CLOSED
        assert breaker.consecutive_failures == 0

    def test_half_open_probe_failure_reopens(self):
        policy = ResiliencePolicy(breaker_threshold=5, breaker_cooldown_s=0.01)
        breaker = CircuitBreaker(policy)
        for _ in range(5):
            breaker.record_failure()
        time.sleep(0.02)
        breaker.admit("t", "fp")  # half-open
        breaker.record_failure()  # probe failed
        assert breaker.state == CIRCUIT_OPEN
        assert breaker.opens == 2

    def test_exhausted_rejects_outright(self):
        policy = ResiliencePolicy(breaker_threshold=1, breaker_cooldown_s=30.0)
        breaker = CircuitBreaker(policy)
        breaker.admit("t", "fp")  # closed: no-op
        breaker.record_failure()
        with pytest.raises(CircuitOpenError) as excinfo:
            breaker.admit("t", "fp")
        assert 0 < excinfo.value.retry_after_s <= 30.0

    def test_success_resets_the_count(self):
        breaker = CircuitBreaker(ResiliencePolicy(breaker_threshold=2))
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == CIRCUIT_CLOSED  # not two failures in a row
        assert breaker.consecutive_failures == 1

    def test_state_callback_feeds_gauge(self):
        states = []
        breaker = CircuitBreaker(
            ResiliencePolicy(breaker_threshold=1), on_state=states.append
        )
        breaker.record_failure()
        assert states == [CIRCUIT_OPEN]


class TestBackoffDelays:
    def test_bounded_and_jittered(self):
        import random

        policy = ResiliencePolicy(max_retries=3, retry_base_s=0.01, retry_jitter=0.5)
        delays = list(backoff_delays(policy, random.Random(0)))
        assert len(delays) == 3
        for attempt, delay in enumerate(delays):
            base = 0.01 * 2 ** attempt
            assert 0.5 * base <= delay <= 1.5 * base

    def test_zero_retries_yields_nothing(self):
        import random

        policy = ResiliencePolicy(max_retries=0)
        assert list(backoff_delays(policy, random.Random(0))) == []


# ----------------------------------------------------------------------
# Deadlines through the server
# ----------------------------------------------------------------------


class TestDeadlines:
    def test_expired_deadline_shed_at_admission(self, graph):
        server = SpMVServer()
        fp = server.register(graph)

        async def main():
            with pytest.raises(DeadlineExceededError) as excinfo:
                await server.submit(fp, np.ones(graph.n_cols), deadline=0.0)
            assert excinfo.value.stage == "admission"
            await server.shutdown()

        asyncio.run(main())
        assert server.metrics.value(
            "serving_deadline_exceeded_total", {"stage": "admission"}
        ) == 1.0

    def test_estimated_wait_sheds_doomed_requests(self):
        def execute(key, X, deadline, inline):
            return X

        batcher = MicroBatcher(execute, BatchPolicy(max_batch=4, max_delay_s=0.002))
        batcher.ewma_batch_s = 1.0  # pretend batches are observed slow

        async def main():
            with pytest.raises(DeadlineExceededError) as excinfo:
                await batcher.submit(
                    "k", np.ones(2), deadline=Deadline.from_budget(0.05)
                )
            assert excinfo.value.stage == "admission"

        asyncio.run(main())
        assert batcher.expired == 1
        assert batcher.in_flight == 0  # never queued

    @pytest.mark.parametrize(
        "workers, in_flight, batch_times",
        [
            (1, 0, 1), (2, 0, 1),  # idle: one batch, no coalescing wait
            (1, 3, 1), (2, 3, 1),  # one batch ahead costs one batch time
            (1, 4, 2), (2, 4, 1),  # two batches run side by side on two workers
            (1, 8, 3), (2, 8, 2),
        ],
    )
    def test_estimated_wait_charges_batches_per_worker(
        self, workers, in_flight, batch_times
    ):
        policy = BatchPolicy(max_batch=4, max_delay_s=0.002, workers=workers)
        batcher = MicroBatcher(lambda key, X, deadline, inline: X, policy)
        batcher.ewma_batch_s = 1.0
        batcher._in_flight = in_flight
        coalescing = policy.max_delay_s if in_flight else 0.0
        assert batcher.estimated_wait_s() == pytest.approx(batch_times + coalescing)
        batcher.shutdown()

    def test_idle_batcher_serves_budget_below_max_delay(self):
        batcher = MicroBatcher(
            lambda key, X, deadline, inline: X,
            BatchPolicy(max_batch=4, max_delay_s=0.05),
        )

        async def main():
            return await batcher.submit(
                "k", np.ones(2), deadline=Deadline.from_budget(0.02)
            )

        result = asyncio.run(main())
        np.testing.assert_array_equal(result.y, np.ones(2))
        assert batcher.expired == 0

    def test_expiry_while_queued_dropped_at_batch_formation(self):
        executed = []

        def execute(key, X, deadline, inline):
            executed.append(X.shape[1])
            return X

        batcher = MicroBatcher(execute, BatchPolicy(max_batch=8, max_delay_s=0.005))

        async def main():
            task = asyncio.ensure_future(
                batcher.submit("k", np.ones(2), deadline=Deadline.from_budget(0.02))
            )
            await asyncio.sleep(0)  # request enqueued, flush timer armed
            time.sleep(0.05)  # stall the loop past the deadline
            with pytest.raises(DeadlineExceededError) as excinfo:
                await task
            assert excinfo.value.stage == "batch"

        asyncio.run(main())
        assert executed == []  # the expired member never reached execution
        assert batcher.expired == 1
        assert batcher.in_flight == 0

    def test_default_deadline_from_policy(self, graph):
        server = SpMVServer(
            resilience=ResiliencePolicy(default_deadline_s=30.0)
        )
        fp = server.register(graph)
        x = np.ones(graph.n_cols)

        async def main():
            result = await server.submit(fp, x)
            await server.shutdown()
            return result

        result = asyncio.run(main())
        np.testing.assert_array_equal(result.y, _oracle(graph, x))


class TestCancellation:
    def test_cancelled_request_releases_slot_and_counts(self, graph, gate_engine):
        server = SpMVServer(policy=BatchPolicy(max_batch=8, max_delay_s=0.02))
        fp = server.register(graph)
        x = np.ones(graph.n_cols)
        started, release = gate_engine(server)

        async def main():
            busy = asyncio.ensure_future(server.submit(fp, x))
            while not started.is_set():  # the lane is busy behind the gate
                await asyncio.sleep(0.001)
            task = asyncio.ensure_future(server.submit(fp, x))
            await asyncio.sleep(0.001)  # request queued, batch not yet formed
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task
            # Free the lane; its next batch triages the dead member.
            release.set()
            await busy
            await server.shutdown()

        asyncio.run(main())
        assert server._inflight_by_tenant["default"] == 0
        assert server._batcher.in_flight == 0
        assert server._batcher.cancelled == 1
        assert server.metrics.total("serving_cancelled_total") >= 1.0


# ----------------------------------------------------------------------
# Circuit breaker through the server
# ----------------------------------------------------------------------


def _breaking_engine(server, fail_times=None):
    """Make the lane's engine fail (forever, or fail_times)."""
    engine = server.registry.engine()
    original = engine.run_many
    state = {"left": fail_times}

    def flaky(matrix, X, **kwargs):
        if state["left"] is None:
            raise RuntimeError("engine down")
        if state["left"] > 0:
            state["left"] -= 1
            raise RuntimeError("transient fault")
        return original(matrix, X, **kwargs)

    engine.run_many = flaky
    return engine, original


class TestCircuitBreakerServing:
    @pytest.mark.parametrize("backend", ["vectorized", "reference"])
    def test_threshold_opens_lane_then_probe_closes_it(self, graph, backend):
        cooldown_s = 0.3
        server = SpMVServer(
            config=TwoStepConfig(backend=backend),
            resilience=ResiliencePolicy(
                breaker_threshold=3, breaker_cooldown_s=cooldown_s, max_retries=0
            ),
        )
        fp = server.register(graph)
        x = np.random.default_rng(2).uniform(size=graph.n_cols)
        engine, original = _breaking_engine(server)  # the lane's engine is down
        gauge = {"tenant": "default", "matrix": fp}

        async def main():
            for _ in range(3):
                with pytest.raises(RuntimeError, match="engine down"):
                    await server.submit(fp, x)
            with pytest.raises(CircuitOpenError) as excinfo:
                await server.submit(fp, x)
            assert 0 < excinfo.value.retry_after_s <= cooldown_s
            assert server.metrics.value("serving_circuit_state", gauge) == 1.0
            engine.run_many = original  # the engine heals
            await asyncio.sleep(cooldown_s + 0.05)
            probe = await server.submit(fp, x)  # half-open probe
            await server.shutdown()
            return probe

        probe = asyncio.run(main())
        assert probe.y.tobytes() == _oracle(graph, x).tobytes()
        breaker = server.stats()["resilience"]["breakers"][f"default/{fp}"]
        assert breaker == {"state": "closed", "consecutive_failures": 0, "opens": 1}
        assert server.metrics.value("serving_circuit_state", gauge) == 0.0

    def test_half_open_probe_recovers(self, graph):
        server = SpMVServer(
            resilience=ResiliencePolicy(
                breaker_threshold=1, breaker_cooldown_s=0.02, max_retries=0
            ),
        )
        fp = server.register(graph)
        x = np.ones(graph.n_cols)
        engine, original = _breaking_engine(server)

        async def main():
            with pytest.raises(RuntimeError):
                await server.submit(fp, x)  # the batch fails -> lane opens
            engine.run_many = original  # the engine heals
            await asyncio.sleep(0.03)  # past the cooldown
            r2 = await server.submit(fp, x)  # half-open probe succeeds
            await server.shutdown()
            return r2

        r2 = asyncio.run(main())
        np.testing.assert_array_equal(r2.y, _oracle(graph, x))
        assert server.stats()["resilience"]["breakers"][f"default/{fp}"][
            "state"
        ] == "closed"

    def test_retries_recover_transient_faults(self, graph):
        server = SpMVServer(
            resilience=ResiliencePolicy(
                max_retries=2, retry_base_s=1e-4, breaker_threshold=10
            ),
        )
        fp = server.register(graph)
        x = np.ones(graph.n_cols)
        _breaking_engine(server, fail_times=1)  # first attempt fails, retry wins

        async def main():
            result = await server.submit(fp, x)
            await server.shutdown()
            return result

        result = asyncio.run(main())
        np.testing.assert_array_equal(result.y, _oracle(graph, x))
        assert server.metrics.total("serving_retries_total") >= 1.0
        # The retry succeeded: the batch never failed, the breaker stayed closed.
        assert server.stats()["resilience"]["breakers"][f"default/{fp}"][
            "state"
        ] == "closed"


# ----------------------------------------------------------------------
# Shutdown semantics
# ----------------------------------------------------------------------


class TestShutdown:
    def test_submit_after_shutdown_fails_fast(self, graph):
        server = SpMVServer()
        fp = server.register(graph)

        async def main():
            await server.shutdown()
            with pytest.raises(ServerClosedError):
                await server.submit(fp, np.ones(graph.n_cols))
            await server.shutdown()  # idempotent

        asyncio.run(main())
        assert server.closed

    def test_close_is_not_terminal(self, graph):
        server = SpMVServer()
        fp = server.register(graph)
        x = np.ones(graph.n_cols)

        async def main():
            await server.submit(fp, x)
            await server.close()
            result = await server.submit(fp, x)  # still serving
            await server.shutdown()
            return result

        result = asyncio.run(main())
        np.testing.assert_array_equal(result.y, _oracle(graph, x))

    def test_shutdown_while_submitting_race(self, graph):
        """Concurrent submits racing a shutdown all resolve -- with a
        result or a typed ServingError -- and never hang."""
        server = SpMVServer(policy=BatchPolicy(max_batch=4, max_delay_s=0.001))
        fp = server.register(graph)
        x = np.ones(graph.n_cols)
        oracle = _oracle(graph, x)

        async def main():
            async def late_submits():
                results = []
                for i in range(40):
                    results.append(
                        asyncio.ensure_future(server.submit(fp, x))
                    )
                    if i == 20:
                        asyncio.ensure_future(server.shutdown())
                    await asyncio.sleep(0)
                return await asyncio.gather(*results, return_exceptions=True)

            return await asyncio.wait_for(late_submits(), timeout=30.0)

        outcomes = asyncio.run(main())
        assert len(outcomes) == 40
        served = 0
        for outcome in outcomes:
            if isinstance(outcome, Exception):
                assert isinstance(outcome, ServingError), outcome
            else:
                served += 1
                np.testing.assert_array_equal(outcome.y, oracle)
        assert served >= 1  # the pre-shutdown submissions were served


# ----------------------------------------------------------------------
# Snapshots
# ----------------------------------------------------------------------


class TestSnapshots:
    def test_round_trip_bit_identical(self, graph, tmp_path):
        other = erdos_renyi_graph(n_nodes=300, avg_degree=3.0, seed=21)
        rng = np.random.default_rng(9)
        x = rng.uniform(size=graph.n_cols)

        async def first_life():
            server = SpMVServer(state_dir=tmp_path)
            fp = server.register(graph)
            fp_other = server.register(other, tenant="team-b")
            result = await server.submit(fp, x)
            await server.shutdown()  # writes the final snapshot
            return fp, fp_other, result.y

        fp, fp_other, y_before = asyncio.run(first_life())
        manifest = json.loads((tmp_path / "registry" / "MANIFEST.json").read_bytes())
        assert {e["fingerprint"] for e in manifest["entries"]} == {fp, fp_other}

        async def second_life():
            server = SpMVServer(state_dir=tmp_path)
            assert server.last_restore["quarantined"] == []
            assert set(server.last_restore["restored"]) == {
                ("default", fp), ("team-b", fp_other),
            }
            result = await server.submit(fp, x)  # no re-registration needed
            await server.shutdown()
            return result.y

        y_after = asyncio.run(second_life())
        assert np.array_equal(
            y_before.view(np.uint8), y_after.view(np.uint8)
        ), "restored run is not bit-identical"

    def test_corrupted_payload_quarantined_not_crash(self, graph, tmp_path):
        other = erdos_renyi_graph(n_nodes=300, avg_degree=3.0, seed=22)

        async def seed_state():
            server = SpMVServer(state_dir=tmp_path)
            fps = (server.register(graph), server.register(other))
            await server.shutdown()
            return fps

        fp_good, fp_bad = asyncio.run(seed_state())
        # Flip bytes inside the second payload: CRC must catch it.
        victim = tmp_path / "registry" / f"default__{fp_bad}.snap"
        blob = bytearray(victim.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        victim.write_bytes(bytes(blob))

        with pytest.warns(RuntimeWarning, match="quarantined"):
            server = SpMVServer(state_dir=tmp_path)
        assert ("default", fp_good) in server.last_restore["restored"]
        assert ("default", fp_bad) in server.last_restore["quarantined"]
        # The damaged payload moved aside for post-mortem.
        assert any(
            entry.name.startswith(f"default__{fp_bad}")
            for entry in (tmp_path / "quarantine").iterdir()
        )
        # The surviving entry still serves.
        x = np.ones(graph.n_cols)

        async def serve():
            result = await server.submit(fp_good, x)
            await server.shutdown()
            return result.y

        np.testing.assert_array_equal(asyncio.run(serve()), _oracle(graph, x))

    def test_truncated_manifest_restores_empty(self, tmp_path):
        registry_dir = tmp_path / "registry"
        registry_dir.mkdir(parents=True)
        (registry_dir / "MANIFEST.json").write_bytes(b'{"version": 1, "entr')
        with pytest.warns(RuntimeWarning, match="quarantined"):
            store = SnapshotStore(tmp_path)
            outcome = store.restore(MatrixRegistry())
        assert outcome == {"restored": [], "quarantined": []}
        assert store.quarantined == 1

    def test_missing_state_dir_is_empty_restore(self, tmp_path):
        server = SpMVServer(state_dir=tmp_path / "never-written")
        assert server.last_restore == {"restored": [], "quarantined": []}

    def test_fingerprint_mismatch_quarantined(self, graph, tmp_path):
        async def seed_state():
            server = SpMVServer(state_dir=tmp_path)
            fp = server.register(graph)
            await server.shutdown()
            return fp

        fp = asyncio.run(seed_state())
        # Valid npz, valid CRC -- but the manifest now promises a
        # different fingerprint.  Only the content check catches this.
        manifest_path = tmp_path / "registry" / "MANIFEST.json"
        manifest = json.loads(manifest_path.read_bytes())
        manifest["entries"][0]["fingerprint"] = "0" * 16
        manifest_path.write_bytes(json.dumps(manifest).encode())
        with pytest.warns(RuntimeWarning, match="quarantined"):
            server = SpMVServer(state_dir=tmp_path)
        assert server.last_restore["restored"] == []
        assert len(server.last_restore["quarantined"]) == 1

    def test_save_gc_drops_stale_payloads(self, graph, tmp_path):
        other = erdos_renyi_graph(n_nodes=300, avg_degree=3.0, seed=23)
        registry = MatrixRegistry()
        store = SnapshotStore(tmp_path)
        fp_old = registry.register(other)
        store.save(registry)
        registry.unregister(fp_old)
        registry.register(graph)
        store.save(registry)
        names = {p.name for p in (tmp_path / "registry").iterdir()}
        assert f"default__{fp_old}.snap" not in names
        assert len(names) == 2  # manifest + one live payload

    @settings(max_examples=20, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=12),
        density=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_snapshot_round_trip_property(self, n, density, seed, tmp_path_factory):
        """Any registrable matrix survives save -> restore with identical
        streams and fingerprint (content round-trip, not just shape)."""
        rng = np.random.default_rng(seed)
        mask = rng.uniform(size=(n, n)) < density
        rows, cols = np.nonzero(mask)
        if rows.size == 0:
            rows, cols = np.array([0]), np.array([0])
        vals = rng.standard_normal(rows.size)
        matrix = COOMatrix.from_triples(n, n, rows, cols, vals)

        tmp = tmp_path_factory.mktemp("snap")
        registry = MatrixRegistry()
        fp = registry.register(matrix)
        SnapshotStore(tmp).save(registry)

        fresh = MatrixRegistry()
        outcome = SnapshotStore(tmp).restore(fresh)
        assert outcome["quarantined"] == []
        assert outcome["restored"] == [("default", fp)]
        restored = fresh.get(fp).matrix
        assert matrix_fingerprint(restored) == fp
        np.testing.assert_array_equal(restored.rows, matrix.rows)
        np.testing.assert_array_equal(restored.cols, matrix.cols)
        np.testing.assert_array_equal(restored.vals, matrix.vals)

    def test_periodic_snapshot_loop(self, graph, tmp_path):
        server = SpMVServer(
            state_dir=tmp_path,
            resilience=ResiliencePolicy(snapshot_interval_s=0.01),
        )
        server.register(graph)

        async def main():
            loop_task = asyncio.ensure_future(server.run_snapshot_loop())
            await asyncio.sleep(0.05)
            loop_task.cancel()
            await asyncio.gather(loop_task, return_exceptions=True)
            await server.shutdown()

        asyncio.run(main())
        assert server.snapshots.saves >= 2  # periodic + shutdown
        assert (tmp_path / "registry" / "MANIFEST.json").exists()


# ----------------------------------------------------------------------
# HTTP mapping
# ----------------------------------------------------------------------


def _request(port, method, path, body=None, headers=None):
    data = json.dumps(body).encode() if body is not None else None
    req = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}", data=data, method=method,
        headers=headers or {},
    )
    try:
        with urllib.request.urlopen(req, timeout=10) as resp:
            return resp.status, resp.read().decode(), dict(resp.headers)
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read().decode(), dict(exc.headers)


class TestHTTPResilience:
    def test_deadline_header_maps_to_504(self, graph):
        server = SpMVServer()
        fp = server.register(graph)

        async def main():
            frontend = HTTPServingFrontend(server, port=0)
            await frontend.start()
            status, body, _ = await asyncio.to_thread(
                _request, frontend.port, "POST", "/v1/spmv",
                {"fingerprint": fp, "x": np.ones(graph.n_cols).tolist()},
                {"X-Deadline-Ms": "0"},
            )
            await frontend.stop()
            return status, body

        status, body = asyncio.run(main())
        assert status == 504
        payload = json.loads(body)
        assert payload["error"] == "deadline_exceeded"
        assert payload["stage"] == "admission"

    def test_failed_batch_is_500_then_open_circuit_is_503(self, graph):
        server = SpMVServer(
            resilience=ResiliencePolicy(
                breaker_threshold=1, breaker_cooldown_s=20.0, max_retries=0
            ),
        )
        fp = server.register(graph)
        _breaking_engine(server)
        body = {"fingerprint": fp, "x": np.ones(graph.n_cols).tolist()}

        async def main():
            frontend = HTTPServingFrontend(server, port=0)
            await frontend.start()
            first = await asyncio.to_thread(
                _request, frontend.port, "POST", "/v1/spmv", body
            )
            second = await asyncio.to_thread(
                _request, frontend.port, "POST", "/v1/spmv", body
            )
            await frontend.stop()
            return first, second

        (status1, _, _), (status2, body2, headers2) = asyncio.run(main())
        assert status1 == 500
        assert status2 == 503
        assert json.loads(body2)["error"] == "circuit_open"
        assert 1 <= int(headers2["Retry-After"]) <= 24  # 20 s cooldown, +-20%

    def test_bad_deadline_header_is_400(self, graph):
        server = SpMVServer()
        fp = server.register(graph)

        async def main():
            frontend = HTTPServingFrontend(server, port=0)
            await frontend.start()
            status, _, _ = await asyncio.to_thread(
                _request, frontend.port, "POST", "/v1/spmv",
                {"fingerprint": fp, "x": np.ones(graph.n_cols).tolist()},
                {"X-Deadline-Ms": "soon"},
            )
            await frontend.stop()
            return status

        assert asyncio.run(main()) == 400

    def test_retry_after_is_jittered_and_clamped(self, graph):
        frontend = HTTPServingFrontend(SpMVServer(), port=0)
        values = {float(frontend._retry_after(0.001)) for _ in range(16)}
        assert values == {1.0}  # tiny hints clamp to the 1s floor
        values = {float(frontend._retry_after(1e9)) for _ in range(16)}
        assert values == {30.0}  # pathological hints clamp to the ceiling
        values = [float(frontend._retry_after(10.0)) for _ in range(64)]
        assert all(8.0 <= v <= 12.0 for v in values)  # +-20% jitter band
        assert len(set(values)) > 1  # actually jittered

    def test_429_carries_queue_aware_retry_after(self, graph):
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
            first = asyncio.ensure_future(server.submit(fp, x))
            await asyncio.sleep(0.01)
            status, _, headers = await asyncio.to_thread(
                _request, frontend.port, "POST", "/v1/spmv",
                {"fingerprint": fp, "x": x.tolist()},
            )
            release.set()
            await first
            await frontend.stop()
            return status, headers

        status, headers = asyncio.run(main())
        assert status == 429
        retry_after = int(headers["Retry-After"])
        assert 1 <= retry_after <= 30

    def test_client_disconnect_releases_quota_slot(self, graph):
        import threading

        release = threading.Event()
        server = SpMVServer(policy=BatchPolicy(max_batch=1, max_delay_s=0.0))
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
            body = json.dumps({"fingerprint": fp, "x": x.tolist()}).encode()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", frontend.port
            )
            writer.write(
                b"POST /v1/spmv HTTP/1.1\r\nHost: x\r\n"
                b"Content-Length: %d\r\n\r\n%s" % (len(body), body)
            )
            await writer.drain()
            await asyncio.sleep(0.05)  # request is now in flight
            assert server._inflight_by_tenant["default"] == 1
            writer.close()  # client walks away mid-request
            await asyncio.sleep(0.1)  # EOF watcher cancels the route
            released = server._inflight_by_tenant["default"]
            release.set()
            await asyncio.sleep(0.05)
            await frontend.stop()
            return released

        released = asyncio.run(main())
        assert released == 0, "disconnect did not release the quota slot"
        assert server.metrics.total("serving_cancelled_total") >= 1.0
