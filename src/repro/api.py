"""Public engine construction, protocol and result type for SpMV execution.

:class:`~repro.core.config.TwoStepConfig` is the one object that holds
engine settings.  This module turns it into engines:

* :func:`resolve_config` -- the one resolver.  It pins a config field by
  field (**explicit value > ``REPRO_*`` environment variable > package
  default**) and reports where every value came from.  It is the only
  reader of the ``REPRO_*`` variables: ``TwoStepEngine.__init__``,
  :func:`create_engine`, the serving layer and
  :func:`repro.backends.resolve_backend` all pin through it.
* :func:`create_engine` -- the factory the CLI, the serving layer and
  the examples use.  It returns a ready
  :class:`~repro.core.twostep.TwoStepEngine`, or its subclass
  :class:`~repro.core.accelerator.Accelerator` (the engine bound to a
  design point) when a design point is requested.  The apps take a ``TwoStepConfig`` and build
  ``TwoStepEngine(config)`` directly (``ITSEngine`` wraps such an
  engine), which pins through the same resolver.

:class:`~repro.core.twostep.TwoStepEngine` is the one class that
executes SpMV.  It satisfies the :class:`SpMVEngine` protocol and
returns an :class:`SpMVResult`, so callers can swap engines -- and
execution backends -- without changing a line.  ``SpMVResult`` unpacks
like the historical ``(y, report)`` tuple::

    y, report = engine.run(matrix, x)          # still works
    result = engine.run(matrix, x, verify=True)
    result.y, result.report, result.verified, result.wall_time_s

Quickstart::

    from repro import TwoStepConfig, create_engine

    engine = create_engine()                          # one stripe, from the matrix
    engine = create_engine(segment_width=8_192, q=4)  # modelled stripes + merge
    engine = create_engine(TwoStepConfig(q=3), backend="reference")
    engine = create_engine(design_point="TS_ASIC")    # simulates at 8192
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Protocol, runtime_checkable

import numpy as np

if TYPE_CHECKING:  # avoid an import cycle; core.twostep imports this module
    from repro.core.config import TwoStepConfig
    from repro.core.twostep import SpGEMMReport, TwoStepEngine, TwoStepReport
    from repro.formats.coo import COOMatrix
    from repro.telemetry import TelemetryReport


@dataclass
class SpMVResult:
    """Outcome of one SpMV execution.

    Attributes:
        y: Dense ``float64`` result of ``y = A x (+ y0)``.
        report: Engine instrumentation (:class:`TwoStepReport` for the
            Two-Step engines).
        verified: True/False when the engine checked ``y`` against the
            dense reference, None when verification was skipped.
        wall_time_s: Wall-clock seconds spent inside the engine.
        telemetry: Structured observability for this execution
            (:class:`~repro.telemetry.TelemetryReport`): the run's trace
            spans and metrics snapshot.  None when the engine was built
            with telemetry off (``telemetry=False`` or ``REPRO_TELEMETRY``
            falsy); never affects ``y`` or ``report``.

    Iterating (and indexing) yields ``(y, report)`` so the result keeps
    tuple-unpacking compatibility with pre-protocol callers.
    """

    y: np.ndarray
    report: "TwoStepReport"
    verified: bool | None = None
    wall_time_s: float = 0.0
    telemetry: "TelemetryReport | None" = None

    def __iter__(self) -> Iterator:
        yield self.y
        yield self.report

    def __len__(self) -> int:
        return 2

    def __getitem__(self, item):
        return (self.y, self.report)[item]


@dataclass
class SpGEMMResult:
    """Outcome of one SpGEMM execution (``C = A @ B``).

    Attributes:
        c: The sparse product in canonical RM-COO.
        report: Engine instrumentation
            (:class:`~repro.core.twostep.SpGEMMReport`): block count,
            partial-product and output record counts, merge compression
            and plan-cache counters.
        verified: True/False when the engine checked ``c`` against the
            dense product, None when verification was skipped.
        wall_time_s: Wall-clock seconds spent inside the engine.
        telemetry: The run's trace spans and metrics snapshot
            (:class:`~repro.telemetry.TelemetryReport`), or None when
            telemetry was disabled.

    Iterating (and indexing) yields ``(c, report)``, mirroring
    :class:`SpMVResult`'s tuple-unpacking compatibility.
    """

    c: "COOMatrix"
    report: "SpGEMMReport"
    verified: bool | None = None
    wall_time_s: float = 0.0
    telemetry: "TelemetryReport | None" = None

    def __iter__(self) -> Iterator:
        yield self.c
        yield self.report

    def __len__(self) -> int:
        return 2

    def __getitem__(self, item):
        return (self.c, self.report)[item]


@runtime_checkable
class SpMVEngine(Protocol):
    """Anything that executes ``y = A x + y`` and reports how it went."""

    def run(
        self,
        matrix: "COOMatrix",
        x: np.ndarray,
        y: np.ndarray | None = None,
        verify: bool = False,
    ) -> SpMVResult:
        """Execute one SpMV; see :class:`SpMVResult`."""
        ...

    def run_many(
        self,
        matrix: "COOMatrix",
        X: np.ndarray,
        Y: np.ndarray | None = None,
        verify: bool = False,
    ) -> SpMVResult:
        """Execute a block of right-hand sides: ``Y = A X + Y``.

        ``X`` has shape ``(n_cols, k)``; the result's ``y`` has shape
        ``(n_rows, k)`` and column ``j`` is bit-identical to
        ``run(matrix, X[:, j], y=Y[:, j])``.  Engines share matrix-side
        work (plans, gather indices, merge permutations) across the
        batch.
        """
        ...

    def spgemm(
        self,
        a: "COOMatrix",
        b: "COOMatrix",
        verify: bool = False,
    ) -> SpGEMMResult:
        """Execute ``C = A @ B`` on the merge substrate.

        Rides the same execution-plan machinery as SpMV: ``A``'s column
        blocking is reused, the merge permutation is cached per
        ``(A-plan, B)``, and results are bit-identical across backends
        (and to the row-wise Gustavson reference).
        """
        ...

    def run_spgemm_many(
        self,
        a: "COOMatrix",
        bs,
        verify: bool = False,
    ) -> list:
        """Execute ``C_i = A @ B_i`` for several right operands.

        ``A``'s execution plan (and its column-block structure) is
        shared across the batch; each ``B_i``'s SpGEMM symbolic
        structure is cached for warm replay.  Returns one
        :class:`SpGEMMResult` per right operand.
        """
        ...


#: Stripe width a design point simulates at when no ``segment_width`` is
#: given.  Engines without a design point derive their geometry from the
#: matrix instead (one stripe spanning every column).
SIMULATION_SEGMENT_WIDTH = 8_192

#: Environment variable consulted per env-backed field when the config
#: leaves it None.  :func:`resolve_config` reads these and nothing else
#: in the package reads the environment.
ENV_VARS = {
    "backend": "REPRO_BACKEND",
    "strict_validate": "REPRO_STRICT_VALIDATE",
    "telemetry": "REPRO_TELEMETRY",
}

#: Defaults of the env-backed flags.  ``TwoStepConfig`` leaves these
#: fields None ("consult the environment"), so their defaults live here.
_FLAG_DEFAULTS = {"strict_validate": False, "telemetry": True}

_TRUTHY = frozenset({"1", "true", "yes", "on"})
_FALSY = frozenset({"0", "false", "no", "off", ""})


def parse_env(field_name: str, raw: str):
    """Parse one ``REPRO_*`` value into its field's native type.

    The only parser of these variables.  The default-on flag
    (``telemetry``) treats any value outside the falsy set as on; the
    default-off flag (``strict_validate``) requires an explicit truthy
    value.
    """
    raw = raw.strip()
    if field_name == "strict_validate":
        return raw.lower() in _TRUTHY
    if field_name == "telemetry":
        return raw.lower() not in _FALSY
    return raw  # backend: a plain string


def _as_config(config) -> "TwoStepConfig":
    """``config``, or a default config for None; anything else raises."""
    from repro.core.config import TwoStepConfig
    from repro.faults.errors import ConfigurationError

    if config is None:
        return TwoStepConfig()
    if not isinstance(config, TwoStepConfig):
        raise ConfigurationError(
            f"config must be a TwoStepConfig, got {type(config).__name__}"
        )
    return config


def resolve_config(config: "TwoStepConfig | None" = None) -> tuple:
    """Pin ``config`` and report where each of its values came from.

    The precedence rule is applied here and nowhere else.  A field that
    differs from its dataclass default is explicit.  A field at its
    default consults its ``REPRO_*`` variable (when :data:`ENV_VARS` has
    one), then the package default (``DEFAULT_BACKEND`` and the flag
    defaults for the env-backed fields, the dataclass default for the
    rest).  Fields whose default is resolved where the live value exists
    (``segment_width``: one stripe per matrix) stay None.

    Returns:
        ``(pinned, provenance)``: the config with ``backend``,
        ``strict_validate`` and ``telemetry`` set, and field ->
        ``(value, source)`` with source ``"explicit"``,
        ``"env:REPRO_*"`` or ``"default"``.  Engines keep the
        provenance as ``engine.options_provenance``; ``/stats`` shows it.

    Raises:
        ConfigurationError: ``config`` is not a ``TwoStepConfig``, or an
            environment value names an unknown backend.
    """
    from repro.backends import DEFAULT_BACKEND

    config = _as_config(config)
    defaults = {"backend": DEFAULT_BACKEND, **_FLAG_DEFAULTS}
    provenance = {}
    for field in dataclasses.fields(config):
        value = getattr(config, field.name)
        var = ENV_VARS.get(field.name)
        if value != field.default:
            source = "explicit"
        elif var is not None and var in os.environ:
            value, source = parse_env(field.name, os.environ[var]), f"env:{var}"
        else:
            value, source = defaults.get(field.name, value), "default"
        provenance[field.name] = (value, source)
    pinned = dataclasses.replace(
        config, **{name: provenance[name][0] for name in ENV_VARS}
    )
    return pinned, provenance


def create_engine(
    config: "TwoStepConfig | None" = None, *, design_point=None, **overrides
) -> "TwoStepEngine":
    """Build an engine from a config plus field overrides.

    The engine pins its settings through :func:`resolve_config` (explicit
    value > ``REPRO_*`` environment variable > package default) and
    keeps the result as ``engine.config`` and the audit trail as
    ``engine.options_provenance``.

    Args:
        config: Base :class:`~repro.core.config.TwoStepConfig`; None
            starts from the defaults.
        design_point: Design-point name or
            :class:`~repro.core.design_points.DesignPoint`; when set, the
            result is an :class:`~repro.core.accelerator.Accelerator`
            simulating at ``segment_width`` (default
            :data:`SIMULATION_SEGMENT_WIDTH`).
        **overrides: ``TwoStepConfig`` field values applied on top of
            ``config``.

    Returns:
        A :class:`~repro.core.twostep.TwoStepEngine`; when
        ``design_point`` is set, the subclass
        :class:`~repro.core.accelerator.Accelerator` bound to it.

    Raises:
        ConfigurationError: An override is not a ``TwoStepConfig`` field
            (the message lists the valid ones), or a value is invalid.

    Examples::

        engine = create_engine()                      # one stripe per matrix
        engine = create_engine(segment_width=4_096, backend="reference")
        accel = create_engine(design_point="ITS_ASIC")  # simulates at 8192
    """
    config = _as_config(config)
    if overrides:
        names = sorted(field.name for field in dataclasses.fields(config))
        unknown = sorted(set(overrides) - set(names))
        if unknown:
            from repro.faults.errors import ConfigurationError

            raise ConfigurationError(
                f"unknown engine option(s): {', '.join(unknown)}; "
                f"valid fields: {', '.join(names)}"
            )
        config = dataclasses.replace(config, **overrides)
    if design_point is None:
        from repro.core.twostep import TwoStepEngine

        return TwoStepEngine(config)
    from repro.core.accelerator import Accelerator
    from repro.core.design_points import DesignPoint, get_design_point

    if not isinstance(design_point, DesignPoint):
        design_point = get_design_point(str(design_point))
    return Accelerator(
        design_point,
        simulation_segment_width=config.segment_width or SIMULATION_SEGMENT_WIDTH,
        config=config,
    )


__all__ = [
    "ENV_VARS",
    "SIMULATION_SEGMENT_WIDTH",
    "SpGEMMResult",
    "SpMVEngine",
    "SpMVResult",
    "create_engine",
    "parse_env",
    "resolve_config",
]
