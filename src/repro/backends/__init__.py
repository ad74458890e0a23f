"""Pluggable execution backends for the Two-Step hot path.

The functional engine dispatches its inner kernels (stripe SpMV, K-way
merge-accumulate, missing-key injection, dense scatter, VLDI size
accounting) through an :class:`ExecutionBackend`:

* ``reference`` -- record-at-a-time loops, the bit-exact oracle
  (:class:`ReferenceBackend`).
* ``vectorized`` -- whole-array NumPy kernels, the fast path and the
  default (:class:`VectorizedBackend`).

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
from repro.backends.reference import ReferenceBackend
from repro.backends.vectorized import VectorizedBackend

#: Environment variable consulted when no backend is configured.
BACKEND_ENV_VAR = ENV_VARS["backend"]

#: Backend used when neither the config nor the environment selects one.
DEFAULT_BACKEND = "vectorized"

_REGISTRY: dict[str, type[ExecutionBackend]] = {
    ReferenceBackend.name: ReferenceBackend,
    VectorizedBackend.name: VectorizedBackend,
}

_INSTANCES: dict[str, ExecutionBackend] = {}


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
    if name not in _INSTANCES:
        _INSTANCES[name] = _REGISTRY[name]()
    return _INSTANCES[name]


def resolve_backend(
    selection: str | ExecutionBackend | None = None,
) -> ExecutionBackend:
    """Resolve a backend selection to an instance.

    Args:
        selection: A backend instance (returned as is), a registry name,
            or None -- which falls back to the ``REPRO_BACKEND``
            environment variable, then :data:`DEFAULT_BACKEND`.

    Returns:
        The selected :class:`ExecutionBackend`.
    """
    if isinstance(selection, ExecutionBackend):
        return selection
    return get_backend(selection or os.environ.get(BACKEND_ENV_VAR) or DEFAULT_BACKEND)


__all__ = [
    "BACKEND_ENV_VAR",
    "DEFAULT_BACKEND",
    "ExecutionBackend",
    "ReferenceBackend",
    "SparseVector",
    "VectorizedBackend",
    "available_backends",
    "get_backend",
    "resolve_backend",
]
