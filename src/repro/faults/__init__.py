"""Fault tolerance: typed errors, fault reports, injection, validation.

* :mod:`repro.faults.errors` -- the typed exception hierarchy
  (:class:`InvalidMatrixError`, :class:`OverloadedError`, ...).
* :mod:`repro.faults.report` -- :class:`FaultReport` accounting attached
  to every :class:`~repro.api.SpMVResult`, populated through the
  :func:`collect_faults` scope the engine opens around each execution.
* :mod:`repro.faults.injection` -- the deterministic
  :class:`FaultPlan` / :func:`inject_faults` harness that makes executor
  crashes, hangs and payload corruption at the serving sites
  reproducible in tests.
* :mod:`repro.faults.validation` -- input hardening
  (:func:`validate_inputs`) at the engine boundary.

The recovery machinery these sites exercise -- retries, circuit
breakers and the backend degradation ladder -- lives in
:mod:`repro.serving.resilience`.
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
    RequestCancelledError,
    ServerClosedError,
    ServingError,
    SnapshotCorruptError,
    UnknownMatrixError,
    WorkerCrashError,
)
from repro.faults.injection import (
    ANY_INDEX,
    FAULT_KINDS,
    SERVING_SITES,
    FaultPlan,
    FaultSpec,
    active_plan,
    apply_fault,
    inject_faults,
    match_fault,
)
from repro.faults.report import (
    FaultEvent,
    FaultReport,
    collect_faults,
    current_report,
    record_event,
)
from repro.faults.validation import (
    STRICT_VALIDATE_ENV_VAR,
    normalize_batch_operand,
    resolve_strict_validate,
    validate_inputs,
    validate_matrix,
    validate_vector,
)

__all__ = [
    "ANY_INDEX",
    "CircuitOpenError",
    "ConfigurationError",
    "FAULT_KINDS",
    "SERVING_SITES",
    "CorruptPayloadError",
    "DeadlineExceededError",
    "FaultError",
    "FaultEvent",
    "FaultPlan",
    "FaultReport",
    "FaultSpec",
    "InjectedFault",
    "InvalidInputError",
    "InvalidMatrixError",
    "InvalidVectorError",
    "OverloadedError",
    "QuotaExceededError",
    "RequestCancelledError",
    "ServerClosedError",
    "STRICT_VALIDATE_ENV_VAR",
    "ServingError",
    "SnapshotCorruptError",
    "UnknownMatrixError",
    "WorkerCrashError",
    "active_plan",
    "apply_fault",
    "collect_faults",
    "current_report",
    "inject_faults",
    "match_fault",
    "normalize_batch_operand",
    "record_event",
    "resolve_strict_validate",
    "validate_inputs",
    "validate_matrix",
    "validate_vector",
]
