"""Fault tolerance: typed errors, injection, validation.

* :mod:`repro.faults.errors` -- the typed exception hierarchy
  (:class:`InvalidMatrixError`, :class:`OverloadedError`, ...).
* :mod:`repro.faults.injection` -- the deterministic
  :class:`FaultPlan` / :func:`inject_faults` harness that makes executor
  crashes, hangs and payload corruption at the serving sites
  reproducible in tests.
* :mod:`repro.faults.validation` -- input hardening
  (:func:`validate_inputs`) at the engine boundary.

The recovery machinery these sites exercise -- deadlines, retries and
circuit breakers -- lives in :mod:`repro.serving.resilience`.
"""

from repro.faults.errors import (
    CircuitOpenError,
    ConfigurationError,
    CorruptPayloadError,
    DeadlineExceededError,
    FaultError,
    InjectedFault,
    InvalidInputError,
    InvalidMatrixError,
    InvalidVectorError,
    OverloadedError,
    QuotaExceededError,
    ServerClosedError,
    ServingError,
    SnapshotCorruptError,
    UnknownMatrixError,
    WorkerCrashError,
)
from repro.faults.injection import (
    ANY_INDEX,
    SERVING_SITES,
    FaultPlan,
    FaultSpec,
    active_plan,
    apply_fault,
    inject_faults,
    match_fault,
)
from repro.faults.validation import (
    normalize_batch_operand,
    validate_inputs,
    validate_matrix,
    validate_vector,
)

__all__ = [
    "ANY_INDEX",
    "CircuitOpenError",
    "ConfigurationError",
    "SERVING_SITES",
    "CorruptPayloadError",
    "DeadlineExceededError",
    "FaultError",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "InvalidInputError",
    "InvalidMatrixError",
    "InvalidVectorError",
    "OverloadedError",
    "QuotaExceededError",
    "ServerClosedError",
    "ServingError",
    "SnapshotCorruptError",
    "UnknownMatrixError",
    "WorkerCrashError",
    "active_plan",
    "apply_fault",
    "inject_faults",
    "match_fault",
    "normalize_batch_operand",
    "validate_inputs",
    "validate_matrix",
    "validate_vector",
]
