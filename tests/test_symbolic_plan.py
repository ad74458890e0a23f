"""Symbolic/numeric split: property, differential and steady-state tests.

The engine's step 2 precomputes the merge permutation, run-id array and
merged key set (the scatter map) once per ``(matrix, p)`` and replays
them every iteration.  These tests pin the three claims that make the
split safe:

* the precomputed structures equal an independent from-scratch
  derivation on randomized matrices (Hypothesis property);
* the engine's planned (fused) step 2 is bit-identical to the unfused,
  plan-free :func:`~repro.merge.prap.prap_merge_dense` on the reference
  backend with its store-queue assembly (paper section 4.2.2), fed the
  same step-1 lists -- across every backend -- so a ``Step2Symbolic``
  bug cannot hide on both sides of the comparison;
* steady-state iterations are symbolic-free: after the first run, no
  step-2 argsort executes (telemetry-counter asserted) and the cached
  structure is hit, for the engine and for PageRank/CG/Jacobi clients.
"""

from __future__ import annotations

import ast
import dataclasses
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.conjugate_gradient import conjugate_gradient, spd_system
from repro.apps.jacobi import jacobi_solve
from repro.apps.pagerank import pagerank
from repro.backends import get_backend
from repro.core.config import TwoStepConfig
from repro.faults.errors import ConfigurationError
from repro.core.plan import build_plan, build_step2_symbolic
from repro.core.twostep import TwoStepEngine, reference_spmv
from repro.generators.erdos_renyi import erdos_renyi_graph
from repro.merge.prap import prap_merge_dense
from repro.telemetry import telemetry_scope, telemetry_session

#: Every backend.  The ids keep the names these cells had when the grid
#: also swept a thread count (``None`` = the engine default).
BACKEND_MATRIX = [
    pytest.param("reference", id="reference-None"),
    pytest.param("vectorized", id="vectorized-None"),
]


@pytest.fixture
def graph():
    return erdos_renyi_graph(300, 4.0, seed=11)


def _config(**kwargs) -> TwoStepConfig:
    return TwoStepConfig(segment_width=64, q=2, telemetry=True, **kwargs)


def _engine(backend, **kwargs) -> TwoStepEngine:
    return TwoStepEngine(_config(backend=backend, **kwargs))


def _unfused_merge(engine, graph, lists, backend="reference") -> np.ndarray:
    """Plan-free step-2 oracle: re-derives the merge from the lists and
    assembles the dense result through the store queue."""
    return prap_merge_dense(
        lists, graph.n_rows, engine.config.q, check_interleave=True, backend=backend
    )


# ---------------------------------------------------------------------------
# Property: symbolic structures == recomputed-from-scratch
# ---------------------------------------------------------------------------


def _oracle_structures(stripes, n_out: int, p: int) -> dict:
    """Independent derivation of every symbolic field with plain numpy.

    Deliberately avoids the production code path: merged keys come from
    ``np.unique``, run ids from ``searchsorted``.
    """
    parts = [sp.out_indices for sp in stripes]
    all_keys = (
        np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)
    ).astype(np.int64)
    sorted_keys = np.sort(all_keys, kind="stable")
    merged_keys = np.unique(all_keys)
    run_ids = np.searchsorted(merged_keys, sorted_keys)
    return {
        "all_keys": all_keys,
        "sorted_keys": sorted_keys,
        "merged_keys": merged_keys,
        "run_ids": run_ids,
        "padded": -(-n_out // p) * p,
    }


@st.composite
def random_plans(draw):
    n = draw(st.integers(2, 120))
    degree = draw(st.floats(0.5, 6.0))
    seed = draw(st.integers(0, 2**16))
    segment_width = draw(st.sampled_from([8, 32, 64]))
    backend_name = draw(st.sampled_from(["reference", "vectorized"]))
    matrix = erdos_renyi_graph(n, degree, seed=seed)
    config = TwoStepConfig(segment_width=segment_width, q=2)
    plan = build_plan(matrix, config, get_backend(backend_name))
    return plan


@given(plan=random_plans(), p=st.sampled_from([1, 2, 4]))
@settings(max_examples=40, deadline=None)
def test_symbolic_matches_from_scratch_derivation(plan, p):
    symbolic = build_step2_symbolic(plan.stripes, plan.n_rows, p)
    oracle = _oracle_structures(plan.stripes, plan.n_rows, p)

    assert symbolic.p == p
    assert symbolic.n_out == plan.n_rows
    assert symbolic.padded == oracle["padded"]
    assert symbolic.total_records == oracle["all_keys"].size
    assert symbolic.n_merged == oracle["merged_keys"].size
    assert np.array_equal(symbolic.merged_keys, oracle["merged_keys"])
    assert np.array_equal(symbolic.run_ids, oracle["run_ids"])

    # ``order`` is pinned by its spec: a permutation that sorts the
    # concatenated keys, stable (ties keep stream order).
    order = symbolic.order
    assert np.array_equal(np.sort(order), np.arange(oracle["all_keys"].size))
    permuted = oracle["all_keys"][order]
    assert np.array_equal(permuted, oracle["sorted_keys"])
    if order.size:
        same_key = permuted[1:] == permuted[:-1]
        assert np.all(np.diff(order)[same_key] > 0)


def test_symbolic_rejects_non_power_of_two_p(graph):
    plan = build_plan(graph, TwoStepConfig(segment_width=64), get_backend("reference"))
    with pytest.raises(ConfigurationError):
        build_step2_symbolic(plan.stripes, plan.n_rows, 3)


def test_symbolic_rejects_out_of_range_keys(graph):
    plan = build_plan(graph, TwoStepConfig(segment_width=64), get_backend("reference"))
    with pytest.raises(ValueError, match="outside output vector range"):
        build_step2_symbolic(plan.stripes, 1, 4)


# ---------------------------------------------------------------------------
# Differential: planned step 2 == plan-free prap_merge_dense, bit for bit
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKEND_MATRIX)
def test_fused_matches_unfused_bitwise(graph, backend):
    x = np.random.default_rng(3).uniform(-1.0, 1.0, size=graph.n_cols)
    engine = _engine(backend)
    for _ in range(2):  # cold (symbolic build) and warm (cache hit) runs
        fused = engine.run(graph, x)
        lists = engine._step1.run_planned(engine.plan(graph), x)
        assert fused.y.tobytes() == _unfused_merge(engine, graph, lists).tobytes()
        assert np.allclose(fused.y, reference_spmv(graph, x))


@pytest.mark.parametrize("backend", BACKEND_MATRIX)
def test_fused_matches_unfused_batch(graph, backend):
    rng = np.random.default_rng(5)
    X = rng.uniform(-1.0, 1.0, size=(graph.n_cols, 3))
    engine = _engine(backend)
    fused = engine.run_many(graph, X)
    lists = engine._step1.run_planned_batch(engine.plan(graph), X)
    for j in range(X.shape[1]):
        column = [(idx, vals[:, j]) for idx, vals in lists]
        oracle = _unfused_merge(engine, graph, column)
        assert fused.y[:, j].tobytes() == oracle.tobytes()
        assert fused.y[:, j].tobytes() == engine.run(graph, X[:, j]).y.tobytes()
        assert np.allclose(fused.y[:, j], reference_spmv(graph, X[:, j]))


# ---------------------------------------------------------------------------
# Steady state: warm iterations perform no step-2 argsort
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKEND_MATRIX)
def test_warm_runs_are_argsort_free(graph, backend):
    engine = _engine(backend)
    x = np.ones(graph.n_cols)
    first = engine.run(graph, x).telemetry.metrics
    warm = engine.run(graph, x).telemetry.metrics
    assert first.total("spmv_plan_symbolic_builds_total") == 1
    assert first.total("spmv_step2_argsort_total") == 0
    assert warm.total("spmv_step2_argsort_total") == 0
    assert warm.total("spmv_plan_symbolic_builds_total") == 0
    assert warm.total("spmv_step2_plan_hits_total") == 1


def test_unfused_runs_do_count_argsorts(graph):
    """The argsort counter discriminates: the plan-free merge bumps it."""
    engine = _engine("vectorized")
    lists = engine._step1.run_planned(engine.plan(graph), np.ones(graph.n_cols))
    session = telemetry_session()
    with telemetry_scope(session):
        _unfused_merge(engine, graph, lists, backend="vectorized")
    assert session.metrics.total("spmv_step2_argsort_total") >= 1


@pytest.mark.parametrize(
    "solver",
    ["pagerank", "cg", "jacobi"],
)
def test_iterative_clients_reuse_symbolic_structure(solver):
    config = _config()
    if solver == "pagerank":
        adjacency = erdos_renyi_graph(200, 4.0, seed=3)
        reports = pagerank(adjacency, config, max_iterations=8).telemetry_reports
    elif solver == "cg":
        matrix, b = spd_system(200, seed=3)
        reports = conjugate_gradient(
            matrix, b, config=config, max_iterations=8
        ).telemetry_reports
    else:
        from repro.apps.jacobi import diagonally_dominant_system

        matrix, b = diagonally_dominant_system(200, seed=3)
        reports = jacobi_solve(
            matrix, b, config=config, max_iterations=8
        ).its_report.telemetry_reports
    assert len(reports) >= 2
    for report in reports:
        assert report.metrics.total("spmv_step2_argsort_total") == 0
    for report in reports[1:]:
        assert report.metrics.total("spmv_plan_symbolic_builds_total") == 0
        assert report.metrics.total("spmv_step2_plan_hits_total") == 1


def test_symbolic_cached_per_p_on_the_plan(graph):
    plan = build_plan(graph, TwoStepConfig(segment_width=64), get_backend("reference"))
    assert plan.step2_symbolic(4) is plan.step2_symbolic(4)
    assert plan.step2_symbolic(2) is not plan.step2_symbolic(4)


# ---------------------------------------------------------------------------
# Gathers allocate; configuration plumbing
# ---------------------------------------------------------------------------

SRC_ROOT = Path(__file__).resolve().parents[1] / "src" / "repro"


def _buffered_takes(source: str) -> list:
    """Line numbers of ``take`` calls that hand NumPy an ``out=`` buffer
    in the default bounds-checking mode.

    ``np.take(a, idx, out=buf)`` with ``mode="raise"`` takes into a
    fresh temporary and copies it back into ``buf``: the buffer saves no
    allocation and writes the gather twice.  Covers ``np.take`` /
    ``numpy.take`` (``out`` is positional argument 3, ``mode`` 4) and
    the ``ndarray.take`` method (``out`` 2, ``mode`` 3).
    """
    hits = []
    for node in ast.walk(ast.parse(source)):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "take"
        ):
            continue
        module_call = isinstance(node.func.value, ast.Name) and node.func.value.id in (
            "np",
            "numpy",
        )
        out_pos, mode_pos = (3, 4) if module_call else (2, 3)
        keywords = {kw.arg: kw.value for kw in node.keywords}
        has_out = "out" in keywords or len(node.args) > out_pos
        mode = keywords.get("mode")
        if mode is None and len(node.args) > mode_pos:
            mode = node.args[mode_pos]
        unbuffered = (
            isinstance(mode, ast.Constant)
            and isinstance(mode.value, str)
            and mode.value != "raise"
        )
        if has_out and not unbuffered:
            hits.append(node.lineno)
    return hits


@pytest.mark.parametrize(
    "source, flagged",
    [
        ("np.take(a, i, out=b)", True),
        ("np.take(a, i, None, b)", True),
        ("np.take(a, i, out=b, mode='raise')", True),
        ("a.take(i, out=b)", True),
        ("np.take(a, i)", False),
        ("np.take(a, i, out=b, mode='clip')", False),
        ("a.take(i, None, b, 'wrap')", False),
        ("queue.put(a)", False),
    ],
)
def test_buffered_take_detector_bites(source, flagged):
    assert bool(_buffered_takes(source)) is flagged


def test_no_buffered_take_under_src():
    offenders = [
        f"{path.relative_to(SRC_ROOT)}:{line}"
        for path in sorted(SRC_ROOT.rglob("*.py"))
        for line in _buffered_takes(path.read_text())
    ]
    assert offenders == []


def test_workspace_is_gone(graph):
    import repro.core.plan as plan_module

    with pytest.raises(ImportError):
        from repro.core.plan import Workspace  # noqa: F401
    assert not hasattr(plan_module, "Workspace")
    engine = _engine("vectorized")
    engine.run(graph, np.ones(graph.n_cols))
    assert not hasattr(engine, "_workspace")
    assert not hasattr(engine, "_workspaces")


def test_config_change_invalidates_plan_reuse(graph):
    x = np.ones(graph.n_cols)
    engine = _engine("vectorized")
    engine.run(graph, x)
    flipped = dataclasses.replace(engine.config, step1_pipelines=4)
    report = TwoStepEngine(flipped).run(graph, x).telemetry
    # A distinct config fingerprint means a fresh plan (cache miss).
    assert report.metrics.value(
        "spmv_plan_cache_events_total", labels={"outcome": "miss"}
    ) == 1
