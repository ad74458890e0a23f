"""Public engine construction, protocol and result type for SpMV execution.

This module is the package's *single* entry point for building engines:

* :class:`EngineOptions` -- one consolidated, audited option surface
  subsuming the scattered :class:`~repro.core.config.TwoStepConfig`
  fields, ``REPRO_*`` environment variables and per-engine constructor
  keywords, with a documented precedence rule
  (**explicit argument > environment variable > package default**).
* :func:`create_engine` -- the factory every caller (CLI, apps, serving
  layer, examples) goes through.  It resolves options once, records the
  provenance of every value, and returns a ready
  :class:`~repro.core.twostep.TwoStepEngine` (or an
  :class:`~repro.core.accelerator.Accelerator` when a design point is
  requested).

Every engine-shaped object in the package (:class:`~repro.core.twostep.
TwoStepEngine`, :class:`~repro.core.accelerator.Accelerator`) satisfies
the :class:`SpMVEngine` protocol and returns an :class:`SpMVResult`, so
callers can swap engines -- and execution backends -- without changing a
line.  ``SpMVResult`` unpacks like the historical ``(y, report)`` tuple::

    y, report = engine.run(matrix, x)          # still works
    result = engine.run(matrix, x, verify=True)
    result.y, result.report, result.verified, result.wall_time_s

Quickstart::

    from repro.api import EngineOptions, create_engine

    engine = create_engine()                          # one stripe, from the matrix
    engine = create_engine(segment_width=8_192, q=4)  # modelled stripes + merge
    engine = create_engine(EngineOptions.from_env(), backend="reference")
    engine = create_engine(design_point="TS_ASIC")    # simulates at 8192
"""

from __future__ import annotations

import dataclasses
import functools
import os
from dataclasses import dataclass
from types import MappingProxyType
from typing import TYPE_CHECKING, Iterator, Protocol, runtime_checkable

import numpy as np

if TYPE_CHECKING:  # avoid an import cycle; core.twostep imports this module
    from repro.core.config import TwoStepConfig
    from repro.core.twostep import SpGEMMReport, TwoStepReport
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

#: EngineOptions fields that map 1:1 onto TwoStepConfig fields.
_CONFIG_FIELDS = (
    "segment_width",
    "q",
    "precision",
    "vldi_vector_block_bits",
    "vldi_matrix_block_bits",
    "dpage_bytes",
    "step1_pipelines",
    "hdn",
    "check_interleave",
    "index_field_bytes",
    "backend",
    "plan_cache",
    "strict_validate",
    "telemetry",
)

#: Environment variable consulted per env-backed field when the explicit
#: value is None.  This is the one table the precedence rule
#: (explicit > env > default) is implemented from; ``EngineOptions.
#: from_env`` and ``resolve`` both read it, and every engine pins its
#: config through ``resolve`` at construction, so nothing else in the
#: package reads these variables during a run.
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


@functools.cache
def static_defaults() -> MappingProxyType:
    """Field -> package default, applied when neither an explicit value
    nor an environment variable selects one.

    Derived rather than copied: ``TwoStepConfig``'s scalar dataclass
    defaults, :data:`repro.backends.DEFAULT_BACKEND` and the env-backed
    flag defaults.  Fields absent here have *dynamic* defaults (one
    stripe spanning the matrix for ``segment_width``, value-precision
    SINGLE for ``precision``, feature-off ``None`` for VLDI/HDN) and
    deliberately stay ``None`` after resolution -- the component owning
    the live value resolves them.
    """
    from repro.backends import DEFAULT_BACKEND
    from repro.core.config import TwoStepConfig

    defaults = {
        field.name: field.default
        for field in dataclasses.fields(TwoStepConfig)
        if isinstance(field.default, (bool, int, str))
    }
    defaults.update(backend=DEFAULT_BACKEND, **_FLAG_DEFAULTS)
    return MappingProxyType(defaults)


def _config_error(message: str):
    from repro.faults.errors import ConfigurationError

    return ConfigurationError(message)


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


@dataclass(frozen=True)
class EngineOptions:
    """Every engine-construction knob, in one audited dataclass.

    A field left at ``None`` means "unset": resolution falls back to the
    field's environment variable (when one exists, see :data:`ENV_VARS`)
    and then to the package default.  The precedence rule is therefore
    **explicit argument > environment variable > default**, applied
    field by field at :meth:`resolve` time -- never again afterwards, so
    an engine built from resolved options cannot change behaviour when
    the environment mutates under it.

    Structural fields (``segment_width`` .. ``index_field_bytes``) mirror
    :class:`~repro.core.config.TwoStepConfig`; execution fields
    (``backend`` .. ``telemetry``) subsume the historical ``REPRO_*``
    environment variables; ``design_point`` selects the
    :class:`~repro.core.accelerator.Accelerator` facade instead of a bare
    :class:`~repro.core.twostep.TwoStepEngine`.

    Attributes:
        segment_width: Stripe width (scratchpad-resident source
            elements).  Unset, the execution geometry comes from the
            matrix: one stripe spanning every column, and no step-2
            merge.  Under a ``design_point`` this is the *simulation*
            segment width, default :data:`SIMULATION_SEGMENT_WIDTH`.
        q: PRaP radix bits (``p = 2**q`` merge cores); default 4.
        precision: Value :class:`~repro.core.records.Precision` for
            traffic accounting; default SINGLE.
        vldi_vector_block_bits: VLDI block width for intermediate vector
            indices; default off.
        vldi_matrix_block_bits: VLDI block width for stripe column
            indices; default off.
        dpage_bytes: DRAM page size for prefetch accounting; default 2048.
        step1_pipelines: Parallel multiplier/adder sets in step 1;
            default 8.
        hdn: :class:`~repro.filters.hdn.HDNConfig`; default off.
        check_interleave: Route step-2 assembly through the store-queue
            invariant checker; default off.
        index_field_bytes: Uncompressed index field width; default 4.
        backend: Execution backend name -- ``"reference"`` or
            ``"vectorized"`` (``REPRO_BACKEND``, then ``"vectorized"``).
        plan_cache: Execution plans retained per engine (LRU); default 8.
        strict_validate: Full-scan input hardening
            (``REPRO_STRICT_VALIDATE``, then off).
        telemetry: Span/metric collection (``REPRO_TELEMETRY``, then on).
        design_point: Design-point name or
            :class:`~repro.core.design_points.DesignPoint`; when set,
            :func:`create_engine` returns an
            :class:`~repro.core.accelerator.Accelerator`.
    """

    segment_width: int | None = None
    q: int | None = None
    precision: object | None = None
    vldi_vector_block_bits: int | None = None
    vldi_matrix_block_bits: int | None = None
    dpage_bytes: int | None = None
    step1_pipelines: int | None = None
    hdn: object | None = None
    check_interleave: bool | None = None
    index_field_bytes: int | None = None
    backend: str | None = None
    plan_cache: int | None = None
    strict_validate: bool | None = None
    telemetry: bool | None = None
    design_point: object | None = None

    def replace(self, **overrides) -> "EngineOptions":
        """A copy with ``overrides`` applied (unknown names raise).

        Raises:
            ConfigurationError: An override is not an ``EngineOptions``
                field -- the audited surface rejects typos instead of
                silently dropping them.
        """
        names = {f.name for f in dataclasses.fields(self)}
        unknown = sorted(set(overrides) - names)
        if unknown:
            raise _config_error(
                f"unknown engine option(s): {', '.join(unknown)}; "
                f"valid fields: {', '.join(sorted(names))}"
            )
        return dataclasses.replace(self, **overrides)

    @classmethod
    def from_env(cls, **overrides) -> "EngineOptions":
        """Options with every env-backed field read from ``REPRO_*``.

        Fields whose variable is unset stay ``None`` (so provenance
        reporting can distinguish "environment" from "default"), and
        explicit ``overrides`` win over the environment -- the same
        precedence :meth:`resolve` applies.

        Raises:
            ConfigurationError: An environment value fails to parse, or
                an override names an unknown field.
        """
        from_env = {}
        for field_name, var in ENV_VARS.items():
            raw = os.environ.get(var)
            if raw is not None:
                from_env[field_name] = parse_env(field_name, raw)
        from_env.update(overrides)
        return cls().replace(**from_env)

    @classmethod
    def from_config(cls, config, **overrides) -> "EngineOptions":
        """Options mirroring an existing ``TwoStepConfig``.

        Bridges pre-redesign code (autotuners, saved configs) onto the
        single entry point: every config field becomes the explicit
        value of the corresponding option, then ``overrides`` apply on
        top.
        """
        values = {name: getattr(config, name) for name in _CONFIG_FIELDS}
        values.update(overrides)
        return cls().replace(**values)

    def resolve(self) -> "EngineOptions":
        """Apply the precedence rule and return fully pinned options.

        Every env-backed field that is still ``None`` consults its
        environment variable, then :func:`static_defaults`.  Fields
        with *dynamic* defaults (stripe width, value precision) stay ``None``
        deliberately -- they are resolved where the live value exists.
        After this call the options are pinned: later environment
        mutations cannot change the engine.
        """
        resolved = dict(self.provenance())
        updates = {
            field_name: value
            for field_name, (value, _source) in resolved.items()
            if value is not None and getattr(self, field_name) is None
        }
        return dataclasses.replace(self, **updates) if updates else self

    def provenance(self) -> dict:
        """Field -> ``(value, source)`` with source one of ``"explicit"``,
        ``"env:REPRO_*"`` or ``"default"``.

        This is the audit trail ``create_engine`` attaches to the engine
        (``engine.options_provenance``) and the serving layer surfaces in
        ``/stats``.
        """
        report = {}
        defaults = static_defaults()
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if value is not None:
                report[field.name] = (value, "explicit")
                continue
            var = ENV_VARS.get(field.name)
            raw = os.environ.get(var) if var else None
            if raw is not None:
                report[field.name] = (parse_env(field.name, raw), f"env:{var}")
            else:
                report[field.name] = (defaults.get(field.name), "default")
        return report

    def to_config(self) -> "TwoStepConfig":
        """The equivalent :class:`~repro.core.config.TwoStepConfig`.

        Resolution against the environment happens first
        (:meth:`resolve`), so the returned config is pinned: ``backend``,
        ``strict_validate`` and ``telemetry`` always carry a value.
        Fields with dynamic defaults stay unset so ``TwoStepConfig``
        supplies them.
        """
        from repro.core.config import TwoStepConfig

        resolved = self.resolve()
        kwargs = {
            name: getattr(resolved, name)
            for name in _CONFIG_FIELDS
            if getattr(resolved, name) is not None
        }
        return TwoStepConfig(**kwargs)


def create_engine(
    options: EngineOptions | None = None, **overrides
) -> "SpMVEngine":
    """Build an engine through the one audited entry point.

    This is the only supported way to construct engines: the CLI, the
    apps, the serving layer and the examples all come through here.  The
    factory resolves ``options`` (explicit argument > ``REPRO_*``
    environment variable > package default), pins the result, and
    attaches the audit trail to the returned engine as
    ``engine.options`` / ``engine.options_provenance``.

    Args:
        options: Base options; None starts from blank
            :class:`EngineOptions` (environment + defaults).
        **overrides: Field overrides applied on top of ``options``
            (unknown names raise ``ConfigurationError``).

    Returns:
        A :class:`~repro.core.twostep.TwoStepEngine`, or an
        :class:`~repro.core.accelerator.Accelerator` when
        ``design_point`` is set.

    Examples::

        engine = create_engine()                      # one stripe per matrix
        engine = create_engine(segment_width=4_096, backend="reference")
        engine = create_engine(EngineOptions.from_env())
        accel = create_engine(design_point="ITS_ASIC")  # simulates at 8192
    """
    base = options if options is not None else EngineOptions()
    if not isinstance(base, EngineOptions):
        raise _config_error(
            f"options must be an EngineOptions, got {type(base).__name__}; "
            "pass TwoStepConfig fields as keyword overrides instead"
        )
    merged = base.replace(**overrides)
    provenance = merged.provenance()
    resolved = merged.resolve()
    if resolved.design_point is not None:
        from repro.core.accelerator import Accelerator
        from repro.core.design_points import DesignPoint, get_design_point

        point = resolved.design_point
        if not isinstance(point, DesignPoint):
            point = get_design_point(str(point))
        engine = Accelerator(
            point,
            simulation_segment_width=(
                resolved.segment_width or SIMULATION_SEGMENT_WIDTH
            ),
            options=dataclasses.replace(resolved, design_point=None),
        )
    else:
        from repro.core.twostep import TwoStepEngine

        engine = TwoStepEngine(resolved.to_config())
    engine.options = resolved
    engine.options_provenance = provenance
    return engine


def ensure_config(config) -> "TwoStepConfig | None":
    """Normalize a ``TwoStepConfig | EngineOptions | None`` parameter.

    The apps historically accepted a :class:`TwoStepConfig`; they now
    also take :class:`EngineOptions` so every caller can stay on the
    single option surface.  ``None`` passes through (apps treat it as
    "reference kernels, no engine").
    """
    if config is None or isinstance(config, EngineOptions):
        return config.to_config() if config is not None else None
    return config


__all__ = [
    "ENV_VARS",
    "EngineOptions",
    "SIMULATION_SEGMENT_WIDTH",
    "SpGEMMResult",
    "SpMVEngine",
    "SpMVResult",
    "create_engine",
    "ensure_config",
    "parse_env",
    "static_defaults",
]
