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
environment variable > :data:`DEFAULT_BACKEND`; the last two are applied
by :func:`repro.api.resolve_config`.  All backends produce
bit-comparable results and identical traffic ledgers; the differential
suite ``tests/test_backends_equivalence.py`` enforces this.
"""

from __future__ import annotations

from repro.api import ENV_VARS, resolve_config
from repro.backends.base import ExecutionBackend, SparseVector
from repro.backends.reference import ReferenceBackend
from repro.backends.vectorized import VectorizedBackend

#: Environment variable naming the backend when none is configured.
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
            or None -- which takes the backend a default config resolves
            to (:func:`repro.api.resolve_config`: the ``REPRO_BACKEND``
            environment variable, then :data:`DEFAULT_BACKEND`).

    Returns:
        The selected :class:`ExecutionBackend`.

    Raises:
        ConfigurationError: ``REPRO_BACKEND`` names an unknown backend.
        ValueError: ``selection`` names an unknown backend.
    """
    if isinstance(selection, ExecutionBackend):
        return selection
    if selection is None:
        selection = resolve_config()[0].backend
    return get_backend(selection)


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
