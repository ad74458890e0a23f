"""Pluggable execution backends for the Two-Step hot path.

The functional engine dispatches its inner kernels (stripe SpMV, K-way
merge-accumulate, missing-key injection, dense scatter, VLDI size
accounting) through an :class:`ExecutionBackend`:

* ``reference`` -- record-at-a-time loops, the bit-exact oracle
  (:class:`ReferenceBackend`).
* ``vectorized`` -- whole-array NumPy kernels, the fast path and the
  default (:class:`VectorizedBackend`).
* ``native`` -- JIT-fused plan-replay loops compiled with Numba (an
  *optional* dependency; graceful fallback to the vectorized kernels
  when unavailable), with ``prange`` run-range parallelism
  (:class:`NativeBackend`).

Selection precedence: an explicit backend object > the ``backend`` field
of :class:`~repro.core.config.TwoStepConfig` > the ``REPRO_BACKEND``
environment variable > :data:`DEFAULT_BACKEND`.  All backends produce
bit-comparable results and identical traffic ledgers; the differential
suite ``tests/test_backends_equivalence.py`` enforces this.
"""

from __future__ import annotations

import os

from repro.api import ENV_VARS
from repro.backends.base import ExecutionBackend, SparseVector
from repro.backends.native import NativeBackend
from repro.backends.reference import ReferenceBackend
from repro.backends.vectorized import VectorizedBackend

#: Environment variable consulted when no backend is configured.
BACKEND_ENV_VAR = ENV_VARS["backend"]

#: Backend used when neither the config nor the environment selects one.
DEFAULT_BACKEND = "vectorized"

_REGISTRY: dict[str, type[ExecutionBackend]] = {
    ReferenceBackend.name: ReferenceBackend,
    VectorizedBackend.name: VectorizedBackend,
    NativeBackend.name: NativeBackend,
}

_INSTANCES: dict[tuple, ExecutionBackend] = {}


def available_backends() -> tuple[str, ...]:
    """Registered backend names, sorted."""
    return tuple(sorted(_REGISTRY))


def get_backend(name: str) -> ExecutionBackend:
    """The (cached) backend instance registered under ``name``.

    Raises:
        ValueError: Unknown backend name.
    """
    if name not in _REGISTRY:
        raise ValueError(
            f"unknown backend {name!r}; available: {', '.join(available_backends())}"
        )
    key = (name,)
    if key not in _INSTANCES:
        _INSTANCES[key] = _REGISTRY[name]()
    return _INSTANCES[key]


def resolve_backend(
    selection: str | ExecutionBackend | None = None,
    n_jobs: int | None = None,
) -> ExecutionBackend:
    """Resolve a backend selection to an instance.

    Args:
        selection: A backend instance (returned as is), a registry name,
            or None -- which falls back to the ``REPRO_BACKEND``
            environment variable, then :data:`DEFAULT_BACKEND`.
        n_jobs: ``prange`` thread count for the ``native`` backend;
            ignored by the sequential backends.  None lets
            ``REPRO_JOBS`` / the CPU count decide.

    Returns:
        The selected :class:`ExecutionBackend`.  Parameterized
        ``native`` instances are cached per ``n_jobs``.
    """
    if isinstance(selection, ExecutionBackend):
        return selection
    name = selection or os.environ.get(BACKEND_ENV_VAR) or DEFAULT_BACKEND
    if name == NativeBackend.name and n_jobs is not None:
        key = (name, n_jobs)
        if key not in _INSTANCES:
            _INSTANCES[key] = NativeBackend(n_jobs=n_jobs)
        return _INSTANCES[key]
    return get_backend(name)


__all__ = [
    "BACKEND_ENV_VAR",
    "DEFAULT_BACKEND",
    "ExecutionBackend",
    "NativeBackend",
    "ReferenceBackend",
    "SparseVector",
    "VectorizedBackend",
    "available_backends",
    "get_backend",
    "resolve_backend",
]
