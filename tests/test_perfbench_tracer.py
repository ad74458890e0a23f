"""perfbench's tracer still finds every entry point it wraps.

``perfbench/tracer.py`` wraps engine, plan, merge-driver and backend
entry points by name from outside the package.  Deleting or renaming one
of them breaks perfbench's per-layer split, and perfbench's own tests are
not part of the tier-1 suite, so these tests install the wrappers on both
backends, check that ``restore()`` puts every original back, and check
that the engine still calls through every wrapped layer: a warm run
records the same layer set whatever route it takes.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from repro.backends import get_backend
from repro.core import plan as plan_mod
from repro.core import segsum, step2, twostep
from repro.core.config import TwoStepConfig
from repro.generators.erdos_renyi import erdos_renyi_graph

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _owners(backend) -> list:
    return [
        twostep.TwoStepEngine,
        twostep,
        plan_mod.ExecutionPlan,
        plan_mod,
        step2,
        segsum,
        type(backend),
    ]


def _snapshot(owners) -> list:
    return [dict(vars(owner)) for owner in owners]


@pytest.mark.parametrize("backend_name", ["reference", "vectorized"])
def test_install_engine_spans_resolves_and_restores(backend_name):
    tracer_mod = _load_tracer()
    backend = get_backend(backend_name)
    owners = _owners(backend)
    before = _snapshot(owners)
    tracer = tracer_mod.Tracer()
    try:
        # Raises AttributeError if any wrapped name no longer resolves.
        tracer_mod.install_engine_spans(tracer, backend)
        assert _snapshot(owners) != before
    finally:
        tracer.restore()
    after = _snapshot(owners)
    for owner, was, now in zip(owners, before, after):
        assert now.keys() == was.keys(), owner
        for name, value in was.items():
            assert now[name] is value, f"{owner!r}.{name} was not restored"


_ROOT = {"validation", "plan.lookup"}
_MERGE = {"step1", "step2", "step2.merge"}


def _expected_layers(backend_name: str, op: str, n_stripes: int) -> set:
    """The layers a warm ``op`` records: ``run`` or ``run_many`` in C/F order."""
    segsum_layer = {"segsum"} if backend_name == "vectorized" else set()
    if op == "run":
        root = {"engine.run"} | _ROOT
        return root | _MERGE | {"step2.scatter"} if n_stripes > 1 else root
    root = {"engine.run_many"} | _ROOT
    if n_stripes > 1:
        return root | _MERGE | segsum_layer
    # One stripe: a column-major block folds each column with run's
    # kernel; a row-major one runs the batched step 1 and scatters.
    return root if op == "F" else root | {"step1"} | segsum_layer


@pytest.mark.parametrize("segment_width", [64, None], ids=["multi-stripe", "one-stripe"])
@pytest.mark.parametrize("backend_name", ["reference", "vectorized"])
def test_engine_reaches_every_wrapped_layer(backend_name, segment_width):
    tracer_mod = _load_tracer()
    graph = erdos_renyi_graph(n_nodes=600, avg_degree=4.0, seed=11)
    engine = twostep.TwoStepEngine(
        TwoStepConfig(backend=backend_name, segment_width=segment_width, q=2)
    )
    x = np.ones(graph.n_cols)
    X = np.random.default_rng(3).standard_normal((graph.n_cols, 3))
    engine.run(graph, x)
    engine.run_many(graph, X)  # warm: plan and symbolic structure built
    n_stripes = len(engine.plan(graph).stripes)
    assert (n_stripes > 1) == (segment_width is not None)
    tracer = tracer_mod.Tracer()
    try:
        tracer_mod.install_engine_spans(tracer, engine.backend)
        for op in ("run", "C", "F"):
            tracer.clear()
            if op == "run":
                engine.run(graph, x)
            else:
                engine.run_many(graph, np.array(X, order=op))
            layers = {row[1] for row in tracer.dump()}
            assert layers == _expected_layers(backend_name, op, n_stripes), op
    finally:
        tracer.restore()
