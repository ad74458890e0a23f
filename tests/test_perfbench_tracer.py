"""perfbench's tracer still finds every entry point it wraps.

``perfbench/tracer.py`` wraps engine, plan, merge-driver and backend
entry points by name from outside the package.  Deleting or renaming one
of them breaks perfbench's per-layer split, and perfbench's own tests are
not part of the tier-1 suite, so this test installs the wrappers on both
backends and checks that ``restore()`` puts every original back.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from repro.backends import get_backend
from repro.core import plan as plan_mod
from repro.core import segsum, step2, twostep

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
