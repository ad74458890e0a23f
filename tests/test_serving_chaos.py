"""Serving chaos: deterministic fault storms against the full stack.

Each test arms a deterministic :class:`FaultPlan` storm at one or more
serving injection sites (``batch``, ``executor``, ``registry.io``,
``http``) and drives concurrent load, asserting the two invariants of
:mod:`repro.serving.chaos`:

1. every submitted request resolves (result or typed error; nothing
   hangs or is silently dropped), and
2. no returned result is numerically wrong (bit-identity to a
   reference oracle, preserved through every retry).

Storms are replayable from their (sites, seed) pair; runs are bounded
with ``asyncio.wait_for`` so a hang fails instead of wedging the suite.
"""

import asyncio
import json
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.api import create_engine
from repro.faults.injection import (
    ANY_INDEX,
    SERVING_SITES,
    FaultPlan,
    FaultSpec,
    inject_faults,
)
from repro.generators import erdos_renyi_graph
from repro.serving import (
    BatchPolicy,
    ResiliencePolicy,
    SpMVServer,
    fault_storm,
    run_chaos,
)
from repro.serving.http import HTTPServingFrontend

#: Requests per run, sized with ``max_batch=4`` so every storm (at most
#: 16 single-shot fault specs) leaves some batches untouched -- the
#: bit-identity invariant must be exercised by real completions, not
#: hold vacuously because everything failed.
N_REQUESTS = 96


@pytest.fixture(scope="module")
def graph():
    return erdos_renyi_graph(n_nodes=600, avg_degree=4.0, seed=31)


@pytest.fixture(scope="module")
def workload(graph):
    """RHS vectors plus reference-oracle results, computed un-faulted."""
    rng = np.random.default_rng(17)
    xs = [rng.uniform(size=graph.n_cols) for _ in range(8)]
    engine = create_engine(backend="reference")
    ys = [engine.run(graph, x)[0] for x in xs]
    return xs, ys


def _server() -> SpMVServer:
    return SpMVServer(
        policy=BatchPolicy(max_batch=4, max_delay_s=0.001),
        resilience=ResiliencePolicy(
            breaker_threshold=2, breaker_cooldown_s=0.05, max_retries=2,
            retry_base_s=1e-4,
        ),
    )


class TestFaultStorm:
    def test_deterministic_from_seed(self):
        a = fault_storm(seed=5, n_faults=10)
        b = fault_storm(seed=5, n_faults=10)
        assert [s for s in a.specs] == [s for s in b.specs]

    def test_different_seeds_differ(self):
        assert fault_storm(seed=1, n_faults=10).specs != fault_storm(
            seed=2, n_faults=10
        ).specs

    def test_respects_site_filter(self):
        plan = fault_storm(sites=("executor",), seed=3, n_faults=6)
        assert {spec.site for spec in plan.specs} == {"executor"}


class TestChaosSites:
    """One storm per serving site."""

    @pytest.mark.parametrize("site", ["batch", "executor"])
    def test_execution_site_storms(self, graph, workload, site):
        xs, ys = workload
        server = _server()
        fp = server.register(graph)
        plan = fault_storm(sites=(site,), seed=7, n_faults=10)

        async def main():
            with inject_faults(plan):
                report = await run_chaos(
                    server, fp, xs, ys, plan, n_requests=N_REQUESTS
                )
            await server.shutdown()
            return report

        report = asyncio.run(main())
        assert report.ok, report.to_dict()
        assert report.completed >= 1  # the run served through the storm
        assert report.fired, "storm never fired; the test proved nothing"

    def test_all_sites_storm(self, graph, workload):
        xs, ys = workload
        server = _server()
        fp = server.register(graph)
        plan = fault_storm(sites=SERVING_SITES, seed=13, n_faults=16)

        async def main():
            with inject_faults(plan):
                report = await run_chaos(
                    server, fp, xs, ys, plan, n_requests=N_REQUESTS
                )
            await server.shutdown()
            return report

        report = asyncio.run(main())
        assert report.ok, report.to_dict()
        assert report.completed >= 1

    def test_storm_with_deadlines(self, graph, workload):
        """Deadlines and fault storms compose: delay faults may turn
        requests into 504s, never into hangs or wrong answers."""
        xs, ys = workload
        server = _server()
        fp = server.register(graph)
        plan = FaultPlan(
            FaultSpec(site="executor", kind="delay", index=ANY_INDEX,
                      times=4, delay_s=0.05),
            FaultSpec(site="executor", kind="raise", index=ANY_INDEX, times=3),
        )

        async def main():
            with inject_faults(plan):
                report = await run_chaos(
                    server, fp, xs, ys, plan,
                    n_requests=N_REQUESTS, deadline_s=0.5,
                )
            await server.shutdown()
            return report

        report = asyncio.run(main())
        assert report.ok, report.to_dict()

    def test_repeated_executor_faults_resolve_typed_or_exact(self, graph, workload):
        """Executor faults that outlast a batch's retries: every request
        ends byte-correct or with a typed error, and none hangs."""
        xs, ys = workload
        server = _server()
        fp = server.register(graph)
        # apply_fault fires per attempt, so six faults exhaust the retry
        # budget of the first batches; they fail with the injected fault
        # (and may open the breaker), later batches serve.  Typed errors
        # are acceptable; hangs and wrong bytes are not.
        plan = FaultPlan(
            FaultSpec(site="executor", kind="raise", index=ANY_INDEX, times=6)
        )

        async def main():
            with inject_faults(plan):
                report = await run_chaos(
                    server, fp, xs, ys, plan, n_requests=N_REQUESTS
                )
            await server.shutdown()
            return report

        report = asyncio.run(main())
        assert report.ok, report.to_dict()
        assert report.completed >= 1


class TestChaosSnapshots:
    def test_registry_io_storm_during_save(self, graph, tmp_path):
        """Faults mid-save leave either the old or the new manifest in
        force -- never a torn snapshot -- and restore never crashes."""
        other = erdos_renyi_graph(n_nodes=200, avg_degree=3.0, seed=41)

        async def seed_and_storm():
            server = SpMVServer(state_dir=tmp_path)
            fp_a = server.register(graph)
            fp_b = server.register(other)
            server.save_snapshot()  # a complete baseline snapshot
            plan = FaultPlan(
                FaultSpec(site="registry.io", kind="raise", index=1, times=1)
            )
            with inject_faults(plan):
                with pytest.raises(Exception):
                    server.save_snapshot()  # fails on the second entry
            await server.shutdown()
            return fp_a, fp_b

        fp_a, fp_b = asyncio.run(seed_and_storm())
        # The interrupted save never replaced the manifest mid-write: a
        # fresh server restores a complete, consistent snapshot.
        server = SpMVServer(state_dir=tmp_path)
        assert server.last_restore["quarantined"] == []
        assert set(server.last_restore["restored"]) == {
            ("default", fp_a), ("default", fp_b),
        }
        asyncio.run(server.shutdown())

    def test_registry_io_storm_during_restore_quarantines(self, graph, tmp_path):
        async def seed():
            server = SpMVServer(state_dir=tmp_path)
            fp = server.register(graph)
            await server.shutdown()
            return fp

        fp = asyncio.run(seed())
        plan = FaultPlan(
            FaultSpec(site="registry.io", kind="corrupt", index=0, times=1)
        )
        with inject_faults(plan):
            with pytest.warns(RuntimeWarning, match="quarantined"):
                server = SpMVServer(state_dir=tmp_path)
        assert server.last_restore["restored"] == []
        assert server.last_restore["quarantined"] == [("default", fp)]
        asyncio.run(server.shutdown())


def _post(port, path, body):
    req = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=json.dumps(body).encode(),
        method="POST",
    )
    try:
        with urllib.request.urlopen(req, timeout=10) as resp:
            return resp.status, resp.read().decode()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read().decode()


class TestChaosHTTP:
    def test_http_site_storm_every_request_answered(self, graph, workload):
        """Storm at the ``http`` site: every round-trip gets a response
        (some are mapped fault statuses) and every 200 body is
        bit-identical to the oracle."""
        xs, ys = workload
        server = _server()
        fp = server.register(graph)
        plan = FaultPlan(
            FaultSpec(site="http", kind="raise", index=2, times=1),
            FaultSpec(site="http", kind="kill", index=5, times=1),
            FaultSpec(site="http", kind="delay", index=7, times=1,
                      delay_s=0.01),
        )

        async def main():
            frontend = HTTPServingFrontend(server, port=0)
            await frontend.start()
            with inject_faults(plan):
                outcomes = await asyncio.gather(*(
                    asyncio.to_thread(
                        _post, frontend.port, "/v1/spmv",
                        {"fingerprint": fp, "x": xs[i % len(xs)].tolist()},
                    )
                    for i in range(12)
                ))
            await frontend.stop()
            return outcomes

        outcomes = asyncio.wait_for(main(), timeout=60.0)
        outcomes = asyncio.run(outcomes)
        assert len(outcomes) == 12  # nothing hung or went unanswered
        oks = 0
        for i, (status, body) in enumerate(outcomes):
            if status == 200:
                oks += 1
                payload = json.loads(body)
                expected = ys[i % len(ys)]
                got = np.array(payload["y"])
                assert np.array_equal(
                    got.view(np.uint8), expected.view(np.uint8)
                ), f"request {i} returned wrong bytes"
            else:
                assert status in (500,), (status, body)
        assert oks >= 9  # 3 faulted, the rest served
        assert len(plan.fired) == 3
