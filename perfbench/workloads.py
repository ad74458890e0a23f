"""The benchmark's workloads: inputs, timed loops, correctness checks.

Every workload runs against the package as users get it --
``create_engine()`` / ``SpMVServer()`` with no overrides -- and returns
an :class:`Outcome`.  Correctness is checked outside every timed
interval:

* each engine operation's output is compared with ``allclose`` to SciPy
  computing the same operation on the same input (the SciPy call is
  also the floor the engine is timed against, in interleaved rounds);
* once per matrix, the engine equals the ``reference`` backend at the
  same configuration (``array_equal``);
* every served ``y`` equals a direct ``engine.run`` bit for bit, and
  those direct results are ``allclose`` to SciPy.

Every mismatch, exception or shed request counts as a failed operation.
"""

from __future__ import annotations

import asyncio
import bisect
import contextvars
import itertools
import resource
import statistics
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from tracer import ROOT_LAYER, Tracer, install_engine_spans

#: Full-size and self-test (``tiny``) input sizes per workload.
SIZES = {
    "spmv_er": {"full": {"n": 150_000, "degree": 3}, "tiny": {"n": 3_000, "degree": 3}},
    "batch_rmat": {"full": {"scale": 15, "degree": 4, "k": 32}, "tiny": {"scale": 9, "degree": 4, "k": 32}},
    "spgemm_rmat": {"full": {"scale": 13, "degree": 4}, "tiny": {"scale": 7, "degree": 4}},
    "serve": {"full": {"n": 10_000, "degree": 3}, "tiny": {"n": 500, "degree": 3}},
}

#: Blocks of consecutive ops whose percentiles the reported ones are medians of.
BLOCKS = 5

#: Cold starts per run for ``setup_s`` (median), and the time cap on them.
COLD_STARTS = 15
COLD_BUDGET_S = 6.0

#: Typical seconds of the calibration task on the host the benchmark was
#: tuned on (2 shared x86-64 vCPUs, Python 3.11, NumPy 2.4); see
#: :class:`Calibration`.
CALIBRATION_REF_S = 0.008

#: Open-loop offered rate and closed-loop client count for serving.
LOW_QPS = 100.0
SAT_CLIENTS = 64

#: RHS vectors cycled through by the serving clients.
SERVE_POOL = 256

#: Serving phases run in slices, with SciPy timed between slices.
SERVE_SLICES = 10
FLOOR_BURST_S = 0.1


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    e2e: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)  # name -> (value, unit), printed only
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    info: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        """Count one checked operation; a failed check is a failed op."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)

    def require(self, ok: bool, what: str) -> None:
        """A check that is not an operation (reference equality, coverage)."""
        if not ok:
            self.problems.append(what)


def peak_rss_mb() -> float:
    """Peak resident set of this process so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def close(out, want) -> bool:
    """``np.allclose(out, want)`` (same tolerances), with fewer temporaries."""
    diff = np.subtract(out, want)
    np.abs(diff, out=diff)
    tol = np.abs(want)
    tol *= 1e-5
    tol += 1e-8
    return bool((diff <= tol).all())


class Calibration:
    """A fixed task that measures how fast the host runs right now.

    A shared host swings between speeds (1.5x within seconds, more over
    an hour), and timings of NumPy, SciPy and interpreter work swing
    together.  The task -- a stable argsort, a SciPy SpMV and a short
    interpreter loop on inputs fixed here, independent of the seed and of
    the package -- is timed right before and after each cold start, and
    ``setup_s`` is the median cold start in units of the task, scaled by
    :data:`CALIBRATION_REF_S`: cold-start seconds at the reference host's
    speed.  Work the package adds to set-up moves it in proportion.
    """

    def __init__(self):
        rng = np.random.default_rng(20240611)
        n = 50_000
        self.keys = rng.integers(0, 1 << 40, 60_000)
        self.csr = sp.csr_matrix(
            (rng.standard_normal(3 * n), (rng.integers(0, n, 3 * n), rng.integers(0, n, 3 * n))),
            shape=(n, n),
        )
        self.x = rng.standard_normal(n)

    def once(self) -> float:
        t0 = time.perf_counter()
        np.argsort(self.keys, kind="stable")
        self.csr @ self.x
        total = 0
        for i in range(3_000):
            total += i
        return time.perf_counter() - t0

    def measure(self, reps: int = 3) -> float:
        """Median seconds of ``reps`` back-to-back runs of the task."""
        return statistics.median(self.once() for _ in range(reps))


def quantile_ms(seconds: list, q: float) -> float:
    return float(np.percentile(np.asarray(seconds), q)) * 1e3


def blocked_ms(seconds: list, q: float) -> float:
    """The ``q``-th percentile in ms, as a median over consecutive blocks.

    The ops, in the order they ran, are split into :data:`BLOCKS` equal
    runs and the percentile is taken in each; the median of those keeps
    one contention episode on a shared host from moving the figure.
    """
    blocks = np.array_split(np.asarray(seconds), min(BLOCKS, len(seconds)))
    return float(np.median([np.percentile(block, q) for block in blocks])) * 1e3


def fresh(matrix):
    """An equal matrix object sharing no arrays (defeats identity caches)."""
    from repro.formats.coo import COOMatrix

    return COOMatrix(
        matrix.n_rows, matrix.n_cols, matrix.rows.copy(), matrix.cols.copy(), matrix.vals.copy()
    )


def to_csr(matrix) -> sp.csr_matrix:
    return sp.csr_matrix(
        (matrix.vals, (matrix.rows, matrix.cols)), shape=(matrix.n_rows, matrix.n_cols)
    )


def groups_nbytes(run_groups) -> int:
    return sum(runs.nbytes + rec.nbytes for runs, rec in run_groups.groups)


def spmv_kernel_bytes(plan, symbolic, k: int) -> int:
    """Bytes the warm SpMV kernels read and write per op (computed).

    Computed from the plan's array sizes, not measured: per stripe the
    column, value and run-structure arrays, the gathered ``x`` values and
    the step-1 output records; then the merge permutation and run
    structure, the merged values, the scatter keys and the dense result.
    Values count ``8 * k`` bytes each.
    """
    value = 8 * k
    total = 0
    for stripe in plan.stripes:
        runs = stripe.run_ids.nbytes if k == 1 else groups_nbytes(stripe.run_groups)
        total += stripe.cols.nbytes + stripe.vals.nbytes + runs
        total += value * (stripe.nnz + stripe.n_runs)
    merge = (
        symbolic.order.nbytes + symbolic.run_ids.nbytes
        if k == 1
        else groups_nbytes(symbolic.run_groups)
    )
    total += merge + value * (symbolic.total_records + symbolic.n_merged)
    total += symbolic.merged_keys.nbytes + value * symbolic.n_out
    return total


def spgemm_kernel_bytes(splan) -> int:
    """Bytes the warm SpGEMM kernels read and write per op (computed)."""
    records = splan.total_records
    return (
        splan.gather_b.nbytes + splan.a_scale.nbytes + 8 * records  # gather B, scale
        + 8 * records  # products written
        + groups_nbytes(splan.run_groups) + 8 * records  # merge maps, products read
        + 8 * splan.n_merged  # merged values
    )


def mean_layers(per_op: list) -> dict:
    """Mean over ops of each layer's self seconds (absent layer = 0)."""
    names = {name for layers in per_op for name in layers}
    return {name: sum(layers.get(name, 0.0) for layers in per_op) / len(per_op) for name in names}


def layer_metrics(selfs: dict) -> dict:
    """Per-layer metric values from mean self seconds per op."""
    ms = lambda name: selfs.get(name, 0.0) * 1e3  # noqa: E731
    return {
        "validation.us": selfs.get("validation", 0.0) * 1e6,
        "plan.lookup_us": selfs.get("plan.lookup", 0.0) * 1e6,
        "step1.ms": ms("step1"),
        "step2.merge_ms": ms("step2.merge"),
        "step2.inject_ms": ms("step2.inject"),
        # The planned merge drivers' own time is the batched path's
        # dense scatter; the single-RHS path scatters in the backend.
        "step2.scatter_ms": ms("step2.scatter") + ms("step2"),
        "segsum.ms": ms("segsum"),
        "engine.self_ms": ms(ROOT_LAYER),
        "spgemm.products_ms": ms("spgemm.products"),
        "spgemm.merge_ms": ms("spgemm.merge"),
    }


def cold_plan_metrics(cold_roots: list) -> dict:
    """Median per cold start of the plan-building layers' seconds."""
    out = {}
    for metric, layer in (
        ("plan.build_s", "plan.build"),
        ("plan.symbolic_s", "plan.symbolic"),
        ("plan.spgemm_s", "plan.spgemm"),
    ):
        out[metric] = statistics.median(
            sum(root["self"].get(layer, 0.0) for root in roots) for roots in cold_roots
        )
    return out


def spmv_counts(engine, matrix, k: int) -> dict:
    """Step-1 / step-2 record counts and computed kernel bytes per RHS."""
    plan = engine.plan(matrix)
    symbolic = plan.step2_symbolic(engine.config.n_cores)
    nbytes = spmv_kernel_bytes(plan, symbolic, k) / k
    return {
        "step1.records": float(plan.intermediate_records),
        "step2.records_merged": float(symbolic.n_merged),
        "step2.compression": symbolic.total_records / max(symbolic.n_merged, 1),
        "kernel.bytes": nbytes,
        "kernel.flops_per_byte": 2.0 * matrix.nnz / nbytes,
    }


def engine_info(engine) -> dict:
    """Resolved engine options (value, source) and the executing kernels."""
    return {
        "options": {
            name: [repr(value), source]
            for name, (value, source) in engine.options_provenance.items()
        },
        "backend": engine.backend.name,
        "kernel_tier": engine.backend.kernel_tier,
    }


# ----------------------------------------------------------------------
# Engine workloads: closed loop, one client
# ----------------------------------------------------------------------


class SpMVCase:
    """``engine.run`` (k=1) or ``engine.run_many`` (k>1) on one matrix."""

    def __init__(self, matrix, k: int, seed: int, n_inputs: int):
        rng = np.random.default_rng(seed + 1)
        self.matrix = matrix
        self.k = k
        self.csr = to_csr(matrix)
        shape = (matrix.n_cols,) if k == 1 else (matrix.n_cols, k)
        self.inputs = [rng.standard_normal(shape) for _ in range(n_inputs)]
        self.flops = 2.0 * matrix.nnz * k

    def op(self, engine, x, matrix=None):
        matrix = self.matrix if matrix is None else matrix
        if self.k == 1:
            return engine.run(matrix, x).y
        return engine.run_many(matrix, x).y

    def floor(self, x):
        return self.csr @ x

    @staticmethod
    def same(out, want) -> bool:
        return out.shape == want.shape and close(out, want)

    @staticmethod
    def corrupt(out):
        out = out.copy()
        out.flat[0] += 1.0
        return out

    def reference_equal(self, engine, reference) -> bool:
        x = self.inputs[0]
        if self.k == 1:
            return bool(np.array_equal(engine.run(self.matrix, x).y, reference.run(self.matrix, x).y))
        # Column j of run_many equals the single-RHS run, so two columns
        # stand for the block (the reference oracle is record-at-a-time).
        sub = np.ascontiguousarray(x[:, :2])
        return bool(
            np.array_equal(engine.run_many(self.matrix, sub).y, reference.run_many(self.matrix, sub).y)
        )

    def layer_counts(self, engine) -> dict:
        counts = spmv_counts(engine, self.matrix, self.k)
        counts["kernel.bytes"] *= self.k  # per op: the whole block
        return counts


class SpGEMMCase:
    """``engine.spgemm(A, A)``."""

    def __init__(self, matrix):
        self.matrix = matrix
        self.csr = to_csr(matrix)
        self.inputs = [None]
        self.flops = None  # set from the plan's partial-product count
        self._layout = None

    def op(self, engine, _x, matrix=None):
        matrix = self.matrix if matrix is None else matrix
        return engine.spgemm(matrix, matrix).c

    def floor(self, _x):
        return self.csr @ self.csr

    def same(self, out, want) -> bool:
        """Same coordinates as SciPy's product and ``allclose`` values.

        SciPy leaves each row's columns unsorted, in an order fixed by the
        inputs; the permutation into row-major order is derived once and
        re-derived whenever SciPy's layout differs from the cached one.
        """
        layout = self._layout
        if layout is None or not (
            np.array_equal(want.indptr, layout[0]) and np.array_equal(want.indices, layout[1])
        ):
            rows = np.repeat(np.arange(want.shape[0]), np.diff(want.indptr))
            perm = np.argsort(rows * want.shape[1] + want.indices, kind="stable")
            layout = self._layout = (want.indptr, want.indices, perm, rows[perm], want.indices[perm])
        _indptr, _indices, perm, rows, cols = layout
        return (
            out.nnz == want.nnz
            and bool(np.array_equal(out.rows, rows))
            and bool(np.array_equal(out.cols, cols))
            and close(out.vals, want.data[perm])
        )

    @staticmethod
    def corrupt(out):
        from repro.formats.coo import COOMatrix

        vals = out.vals.copy()
        vals[0] += 1.0
        return COOMatrix(out.n_rows, out.n_cols, out.rows, out.cols, vals)

    def reference_equal(self, engine, reference) -> bool:
        a = engine.spgemm(self.matrix, self.matrix).c
        b = reference.spgemm(self.matrix, self.matrix).c
        return all(np.array_equal(getattr(a, f), getattr(b, f)) for f in ("rows", "cols", "vals"))

    def layer_counts(self, engine) -> dict:
        splan = engine.plan(self.matrix).spgemm_plan(self.matrix)
        nbytes = spgemm_kernel_bytes(splan)
        return {
            "spgemm.partials": float(splan.total_records),
            "spgemm.outputs": float(splan.n_merged),
            "spgemm.compression": float(splan.compression),
            "kernel.bytes": float(nbytes),
            "kernel.flops_per_byte": 2.0 * splan.total_records / nbytes,
        }


def build_case(workload: str, seed: int, tiny: bool):
    from repro.generators import erdos_renyi_graph, rmat_graph

    size = SIZES[workload]["tiny" if tiny else "full"]
    if workload == "spmv_er":
        matrix = erdos_renyi_graph(size["n"], size["degree"], seed=seed)
        return SpMVCase(matrix, k=1, seed=seed, n_inputs=4)
    if workload == "batch_rmat":
        matrix = rmat_graph(size["scale"], size["degree"], seed=seed)
        return SpMVCase(matrix, k=size["k"], seed=seed, n_inputs=2)
    matrix = rmat_graph(size["scale"], size["degree"], seed=seed)
    return SpGEMMCase(matrix)


class ColdTimes:
    """Cold-start seconds, each beside the host calibration around it."""

    def __init__(self):
        self.calibration = Calibration()
        self.raw: list = []
        self.scaled: list = []
        self.budget_end = time.perf_counter() + COLD_BUDGET_S
        self.before = 0.0

    def more(self) -> bool:
        return len(self.raw) < COLD_STARTS and (
            len(self.raw) < 3 or time.perf_counter() < self.budget_end
        )

    def start(self) -> float:
        self.before = self.calibration.measure()
        return time.perf_counter()

    def stop(self, t0: float) -> None:
        elapsed = time.perf_counter() - t0
        host = (self.before + self.calibration.measure()) / 2
        self.raw.append(elapsed)
        self.scaled.append(elapsed / host * CALIBRATION_REF_S)

    def report(self, outcome: Outcome) -> float:
        """``setup_s``; the raw median and the calibration are printed too."""
        outcome.extra["setup_raw_s"] = (statistics.median(self.raw), "s")
        host = self.calibration.measure(reps=9)
        outcome.extra["host.calibration_ms"] = (host * 1e3, "ms")
        return statistics.median(self.scaled)


def cold_starts(case, outcome: Outcome, tracer: Tracer | None) -> tuple:
    """``setup_s`` from cold engine construction + first op; cold spans."""
    from repro import create_engine

    cold, cold_roots = ColdTimes(), []
    while cold.more():
        matrix = fresh(case.matrix)
        if tracer is not None:
            tracer.clear()
        t0 = cold.start()
        engine = create_engine()
        out = case.op(engine, case.inputs[0], matrix=matrix)
        cold.stop(t0)
        if tracer is not None:
            cold_roots.append(tracer.roots())
        outcome.check(case.same(out, case.floor(case.inputs[0])), "cold-start output differs from SciPy")
    return cold.report(outcome), cold_roots


def run_engine_workload(workload, seed, seconds, trace, tiny, corrupt=None) -> Outcome:
    """Closed loop of one client: engine op and SciPy op alternate."""
    from repro import create_engine

    outcome = Outcome()
    case = build_case(workload, seed, tiny)
    tracer = Tracer() if trace else None
    engine = create_engine()
    outcome.info.update(engine_info(engine))
    if tracer is not None:
        install_engine_spans(tracer, engine.backend)
    setup_s, cold_roots = cold_starts(case, outcome, tracer)
    if tracer is not None:
        tracer.restore()

    for x in case.inputs:  # warm the plan, workspaces and SciPy
        case.op(engine, x)
        case.floor(x)
    if case.flops is None:
        case.flops = 2.0 * engine.plan(case.matrix).spgemm_plan(case.matrix).total_records
    stats0 = engine.plan_cache_stats

    engine_s, floor_s, traced_s, plain_s, per_op, coverage = [], [], [], [], [], []
    end = time.perf_counter() + seconds
    for i in itertools.count():
        if i >= 3 and time.perf_counter() >= end:
            break
        x = case.inputs[i % len(case.inputs)]
        traced = tracer is not None and i % 2 == 1
        if traced:
            install_engine_spans(tracer, engine.backend)
            tracer.clear()
        try:
            t0 = time.perf_counter()
            out = case.op(engine, x)
            elapsed = time.perf_counter() - t0
        except Exception as exc:  # noqa: BLE001 - a raising op is a failed op
            outcome.check(False, f"op {i} raised {type(exc).__name__}: {exc}")
            continue
        finally:
            if traced:
                tracer.restore()
        t0 = time.perf_counter()
        want = case.floor(x)
        floor_s.append(time.perf_counter() - t0)
        engine_s.append(elapsed)
        if traced:
            traced_s.append(elapsed)
            (root,) = tracer.roots()
            per_op.append(root["self"])
            coverage.append(sum(root["self"].values()) / elapsed)
            outcome.spans.extend(tracer.dump())
        elif tracer is not None:
            plain_s.append(elapsed)
        if corrupt is not None and i == corrupt:
            out = case.corrupt(out)
        outcome.check(case.same(out, want), f"op {i} output differs from SciPy")
    rss = peak_rss_mb()
    if not engine_s:
        outcome.require(False, "no operation completed")
        return outcome

    reference = create_engine(backend="reference")
    outcome.require(case.reference_equal(engine, reference), "engine differs from the reference backend")
    p50 = blocked_ms(engine_s, 50)
    outcome.e2e = {
        "setup_s": setup_s,
        "gflops": case.flops / (p50 / 1e3) / 1e9,
        "op_p50_ms": p50,
        "op_p90_ms": blocked_ms(engine_s, 90),
        "floor_ratio": p50 / blocked_ms(floor_s, 50),
        "peak_rss_mb": rss,
    }
    outcome.extra["ops"] = (len(engine_s), "count")
    outcome.extra["scipy_p50_ms"] = (quantile_ms(floor_s, 50), "ms")
    if tracer is not None:
        stats1 = engine.plan_cache_stats
        lookups = (stats1["hits"] - stats0["hits"]) + (stats1["misses"] - stats0["misses"])
        outcome.layers = {
            **layer_metrics(mean_layers(per_op)),
            **cold_plan_metrics(cold_roots),
            **case.layer_counts(engine),
            "plan.hit_ratio": (stats1["hits"] - stats0["hits"]) / max(lookups, 1),
            "trace.op_ms": statistics.fmean(traced_s) * 1e3,
            "trace.coverage": statistics.median(coverage),
            "trace.overhead": statistics.median(traced_s) / statistics.median(plain_s),
        }
        check_coverage(outcome, coverage)
    return outcome


def check_coverage(outcome: Outcome, coverage: list) -> None:
    """Per-layer self times must sum to within 5% of each op's wall time.

    Allowed to miss on 5% of ops: a thread descheduled between the
    client's clock read and the root span's is host noise, not a hole in
    the span tree.
    """
    within = sum(abs(c - 1.0) <= 0.05 for c in coverage) / len(coverage)
    outcome.require(
        within >= 0.95,
        f"layer self times are within 5% of wall time on only {within:.1%} of traced ops",
    )


# ----------------------------------------------------------------------
# Serving workloads: in-process SpMVServer
# ----------------------------------------------------------------------

#: The benchmark's id of the request a coroutine is submitting.
REQUEST = contextvars.ContextVar("perfbench_request", default=None)


@dataclass
class Request:
    vector: int
    due: float  # scheduled send time (open loop) or send time (closed loop)
    sent: float = 0.0
    entered: float = 0.0  # the batcher's submit was called
    done: float = 0.0
    queued_s: float = 0.0


class ServeCase:
    """One ER matrix, a pool of RHS vectors and their expected results."""

    def __init__(self, seed: int, tiny: bool, outcome: Outcome):
        from repro import create_engine
        from repro.generators import erdos_renyi_graph

        size = SIZES["serve"]["tiny" if tiny else "full"]
        self.matrix = erdos_renyi_graph(size["n"], size["degree"], seed=seed)
        self.csr = to_csr(self.matrix)
        rng = np.random.default_rng(seed + 1)
        self.pool = [rng.standard_normal(self.matrix.n_cols) for _ in range(SERVE_POOL)]
        self.first = np.array([x[0] for x in self.pool])
        if np.unique(self.first).size != SERVE_POOL:
            raise RuntimeError("serving pool vectors must have distinct first elements")
        self.vector_of_first = {float(v): i for i, v in enumerate(self.first)}
        direct = create_engine()
        self.expected = [direct.run(self.matrix, x).y for x in self.pool]
        for x, y in zip(self.pool, self.expected):
            outcome.require(bool(np.allclose(y, self.csr @ x)), "direct engine.run differs from SciPy")
        reference = create_engine(backend="reference")
        outcome.require(
            bool(np.array_equal(self.expected[0], reference.run(self.matrix, self.pool[0]).y)),
            "engine differs from the reference backend",
        )
        self.flops = 2.0 * self.matrix.nnz

    def floor_burst(self, k: int) -> list:
        """SciPy seconds per RHS vector, products of ``k`` vectors at a time."""
        block = self.pool[0] if k == 1 else np.stack(self.pool[:k], axis=1)
        times = []
        end = time.perf_counter() + FLOOR_BURST_S
        while len(times) < 10 or time.perf_counter() < end:
            t0 = time.perf_counter()
            self.csr @ block
            times.append((time.perf_counter() - t0) / k)
        return times


def batch_note(args) -> frozenset:
    """The first elements of a ``run_many`` block's columns."""
    return frozenset(args[2][0].tolist())


class ServeHarness:
    """Drives one server; records and checks every request."""

    def __init__(self, case: ServeCase, outcome: Outcome, corrupt=None):
        self.case = case
        self.outcome = outcome
        self.corrupt = corrupt
        self.server = None
        self.fingerprint = None
        self.records: list = []
        self.recording = False
        self.shed = 0
        self.entered: dict = {}  # request id -> when it reached the batcher
        self._ids = itertools.count()

    async def cold_start(self, cold: ColdTimes) -> None:
        from repro.serving import SpMVServer

        matrix = fresh(self.case.matrix)
        t0 = cold.start()
        server = SpMVServer()
        fingerprint = server.register(matrix)
        result = await server.submit(fingerprint, self.case.pool[0])
        cold.stop(t0)
        self.outcome.check(
            bool(np.array_equal(result.y, self.case.expected[0])), "cold-start result differs"
        )
        if self.server is not None:
            await self.server.shutdown()
        self.server, self.fingerprint = server, fingerprint

    async def request(self, vector: int, due: float) -> None:
        from repro.faults.errors import DeadlineExceededError, OverloadedError

        record = Request(vector=vector, due=due)
        request_id = next(self._ids)
        REQUEST.set(request_id)
        record.sent = time.perf_counter()
        try:
            result = await self.server.submit(self.fingerprint, self.case.pool[vector])
        except (OverloadedError, DeadlineExceededError) as exc:
            self.shed += 1
            self.count(False, f"request {request_id} shed: {type(exc).__name__}")
            return
        except Exception as exc:  # noqa: BLE001 - a raising request is a failed one
            self.count(False, f"request {request_id} raised {type(exc).__name__}: {exc}")
            return
        record.done = time.perf_counter()
        record.queued_s = result.queued_s
        y = result.y
        if self.recording and self.corrupt == len(self.records):
            y = y.copy()
            y[0] += 1.0
        record.entered = self.entered.pop(request_id, record.sent)
        self.count(
            bool(np.array_equal(y, self.case.expected[vector])),
            f"request {request_id} differs from a direct engine.run",
        )
        if self.recording:
            self.records.append(record)

    def count(self, ok: bool, what: str) -> None:
        if self.recording:
            self.outcome.check(ok, what)
        elif not ok:  # warm-up traffic is not counted, but must be right
            self.outcome.require(False, what)

    async def open_loop(self, rate: float, seconds: float, first_vector: int = 0) -> list:
        """Requests due every ``1/rate`` s regardless of completions.

        Returns how late the generator sent each request, in seconds.
        """
        tasks, late = [], []
        start = time.perf_counter() + 0.005
        for i in itertools.count():
            due = start + i / rate
            if due - start >= seconds:
                break
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            late.append(time.perf_counter() - due)
            tasks.append(asyncio.create_task(self.request((first_vector + i) % SERVE_POOL, due)))
        await asyncio.gather(*tasks)
        return late

    async def closed_loop(self, clients: int, seconds: float) -> None:
        """``clients`` concurrent callers, each waiting for its reply."""
        end = time.perf_counter() + seconds
        own = SERVE_POOL // clients

        async def client(c: int) -> None:
            for j in itertools.count():
                if time.perf_counter() >= end:
                    return
                await self.request(c + clients * (j % own), time.perf_counter())

        await asyncio.gather(*(client(c) for c in range(clients)))


def install_serving_marks(tracer: Tracer, harness: ServeHarness) -> None:
    """Stamp when each request reaches the batcher (end of server admission)."""
    from repro.serving.batching import MicroBatcher

    def make(original):
        async def submit(self, key, x, deadline=None):
            request_id = REQUEST.get()
            if request_id is not None:
                harness.entered[request_id] = time.perf_counter()
            return await original(self, key, x, deadline=deadline)

        return submit

    tracer.patch(MicroBatcher, "submit", make)


def serve_breakdown(records: list, roots: list, first_to_vector: dict, outcome: Outcome):
    """Split each traced request's wall time into serving and engine layers.

    A request's batch is the first ``run_many`` that starts after the
    request reached the batcher and whose block holds the request's
    vector (in-flight requests never share a vector).  Returns per-request
    layer dicts (seconds) and their exec shares.
    """
    starts = [root["start"] for root in roots]
    per_request, shares, batches = [], [], set()
    for record in records:
        i = bisect.bisect_left(starts, record.entered)
        while i < len(roots) and record.vector not in {
            first_to_vector.get(v) for v in roots[i]["note"]
        }:
            i += 1
        if i == len(roots):
            outcome.require(False, "a traced request matched no run_many batch")
            continue
        root = roots[i]
        batches.add(i)
        formed = record.entered + record.queued_s
        wall = record.done - record.sent
        layers = dict(root["self"])
        layers["serve.admit"] = record.entered - record.sent
        layers["serve.queue"] = record.queued_s
        layers["serve.handoff"] = root["start"] - formed
        layers["serve.response"] = record.done - root["end"]
        layers["serve.exec"] = root["end"] - root["start"]
        per_request.append(layers)
        shares.append((root["end"] - root["start"]) / wall)
    return per_request, shares, [len(roots[i]["note"]) for i in sorted(batches)]


async def serve_main(workload, seed, seconds, trace, tiny, corrupt) -> Outcome:
    from repro import create_engine

    outcome = Outcome()
    case = ServeCase(seed, tiny, outcome)
    harness = ServeHarness(case, outcome, corrupt=corrupt)
    tracer = Tracer() if trace else None
    backend = create_engine().backend

    cold, cold_roots = ColdTimes(), []
    while cold.more():
        if tracer is not None:
            install_engine_spans(tracer, backend)
            tracer.clear()
        await harness.cold_start(cold)
        if tracer is not None:
            cold_roots.append(tracer.roots())
            tracer.restore()
    setup_s = cold.report(outcome)
    engine = harness.server.registry.engine("default")
    outcome.info.update(engine_info(engine))

    low = workload == "serve_low"
    warm = min(0.5, seconds / 4)
    if low:
        await harness.open_loop(LOW_QPS, warm)
    else:
        await harness.closed_loop(SAT_CLIENTS, warm)
    await harness.server.close()
    stats0 = engine.plan_cache_stats

    # The phase runs in slices; between slices the server drains and
    # SciPy is timed, so the floor is measured in rounds interleaved with
    # the load.  Traced runs trace every other slice.
    # SciPy's floor is A @ x for a lone request: the fastest decile of
    # back-to-back products, since a ~0.1 ms product's median swings with
    # every interrupt and cache eviction on a shared host.  Under
    # saturation it is SciPy's best throughput: the median time per column
    # of A @ X, X the whole pool of vectors the clients send (per column
    # of one 32-wide batch it swings with the host far more than the
    # server does).
    floor_k, floor_q = (1, 10) if low else (SERVE_POOL, 50)
    harness.recording = True
    floor_s, bursts, late, slices = [], [], [], []

    def floor_burst() -> None:
        burst = case.floor_burst(floor_k)
        floor_s.extend(burst)
        bursts.append(float(np.percentile(burst, floor_q)))

    for s in range(SERVE_SLICES):
        floor_burst()
        traced = trace and s % 2 == 1
        if traced:
            install_engine_spans(tracer, backend, batch_note=batch_note)
            install_serving_marks(tracer, harness)
            tracer.clear()
        first = len(harness.records)
        t0 = time.perf_counter()
        if low:
            late += await harness.open_loop(LOW_QPS, seconds / SERVE_SLICES, first_vector=first)
        else:
            await harness.closed_loop(SAT_CLIENTS, seconds / SERVE_SLICES)
        await harness.server.close()
        wall = time.perf_counter() - t0
        if traced:
            tracer.restore()
            slices.append((True, harness.records[first:], tracer.roots(), wall))
            outcome.spans.extend(tracer.dump())
        else:
            slices.append((False, harness.records[first:], None, wall))
    harness.recording = False
    rss = peak_rss_mb()
    floor_burst()
    await harness.server.shutdown()

    records = [r for _traced, batch, _roots, _wall in slices for r in batch]
    if not records:
        outcome.require(False, "no request completed")
        return outcome
    latency = [r.done - (r.due if low else r.sent) for r in records]
    p50 = blocked_ms(latency, 50)
    floor_p50 = blocked_ms(floor_s, 50)
    served_per_s = len(records) / sum(wall for *_rest, wall in slices)
    # Each slice's median latency (open loop) or served time per request
    # (closed loop: wall / completed) against SciPy timed right before
    # and after that slice; the median over slices.  The host's speed
    # swings within seconds, so only SciPy timed next to the load it is
    # compared with cancels it.
    floor_ratio = statistics.median(
        (statistics.median(r.done - r.due for r in batch) if low else wall / len(batch))
        / ((bursts[s] + bursts[s + 1]) / 2)
        for s, (_traced, batch, _roots, wall) in enumerate(slices)
        if batch
    )
    outcome.e2e = {
        "setup_s": setup_s,
        "gflops": case.flops * served_per_s / 1e9,
        "op_p50_ms": p50,
        "op_p90_ms": blocked_ms(latency, 90),
        "floor_ratio": floor_ratio,
        "peak_rss_mb": rss,
    }
    prefix = "low" if low else "sat"
    outcome.extra[f"{prefix}.p50_ms"] = (p50, "ms")
    outcome.extra[f"{prefix}.p99_ms"] = (quantile_ms(latency, 99), "ms")
    if not low:
        outcome.extra["sat.rps"] = (served_per_s, "1/s")
    outcome.extra["requests"] = (len(records), "count")
    outcome.extra["scipy_p50_ms"] = (floor_p50, "ms")
    if low:
        outcome.extra["loadgen.late_p99_ms"] = (quantile_ms(late, 99), "ms")

    if tracer is not None:
        per_request, shares, batch_sizes, coverage, traced_ms, plain_ms = [], [], [], [], [], []
        for traced, batch, roots, _wall in slices:
            walls = [r.done - r.sent for r in batch]
            if not traced:
                plain_ms += walls
                continue
            traced_ms += walls
            layers, share, sizes = serve_breakdown(batch, roots, case.vector_of_first, outcome)
            per_request += layers
            shares += share
            batch_sizes += sizes
            coverage += [
                sum(v for k, v in lay.items() if k != "serve.exec") / w for lay, w in zip(layers, walls)
            ]
        selfs = mean_layers(per_request)
        stats1 = engine.plan_cache_stats
        lookups = (stats1["hits"] - stats0["hits"]) + (stats1["misses"] - stats0["misses"])
        mean_batch = statistics.fmean(batch_sizes)
        outcome.layers = {
            **layer_metrics(selfs),
            **cold_plan_metrics(cold_roots),
            # Per request, in batches of the mean batch size.
            **spmv_counts(engine, case.matrix, max(1, round(mean_batch))),
            "plan.hit_ratio": (stats1["hits"] - stats0["hits"]) / max(lookups, 1),
            "serve.admit_ms": selfs.get("serve.admit", 0.0) * 1e3,
            "serve.queue_ms": selfs.get("serve.queue", 0.0) * 1e3,
            "serve.handoff_ms": selfs.get("serve.handoff", 0.0) * 1e3,
            "serve.exec_ms": selfs.get("serve.exec", 0.0) * 1e3,
            "serve.response_ms": selfs.get("serve.response", 0.0) * 1e3,
            "serve.mean_batch": mean_batch,
            "serve.kernel_share": statistics.fmean(shares),
            "serve.shed": float(harness.shed),
            "loadgen.late_p99_ms": quantile_ms(late, 99) if late else 0.0,
            "trace.op_ms": statistics.fmean(traced_ms) * 1e3,
            "trace.coverage": statistics.median(coverage),
            "trace.overhead": statistics.median(traced_ms) / statistics.median(plain_ms),
        }
        check_coverage(outcome, coverage)
        outcome.require(
            min(min(lay.values()) for lay in per_request) >= -1e-4,
            "a serving layer has negative self time (batch matching is wrong)",
        )
    return outcome


def run_workload(workload, seed, seconds, trace, tiny=False, corrupt=None) -> Outcome:
    """Run one named workload; ``corrupt`` perturbs the output of the op
    (or recorded request) with that index, for the self-test."""
    if workload.startswith("serve_"):
        return asyncio.run(serve_main(workload, seed, seconds, trace, tiny, corrupt))
    return run_engine_workload(workload, seed, seconds, trace, tiny, corrupt)
