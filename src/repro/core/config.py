"""Configuration of one Two-Step SpMV execution."""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.records import Precision
from repro.faults.errors import ConfigurationError
from repro.filters.hdn import HDNConfig


@dataclass(frozen=True)
class TwoStepConfig:
    """Parameters controlling the functional Two-Step engine.

    The one object that holds engine settings.  Fields that "defer to" a
    ``REPRO_*`` variable are resolved once, when an engine is built from
    the config (:func:`repro.api.resolve_config`); ``engine.config`` holds
    the pinned values.

    Attributes:
        segment_width: Source-vector elements per scratchpad-resident
            segment; dictates the stripe width (paper: set by scratchpad
            capacity / value bytes).  None (the default) derives the
            execution geometry from the matrix: one stripe spanning every
            column, whose row-sorted step-1 output already is ``A x``, so
            the engine skips the step-2 merge.  An explicit width models
            the accelerator's scratchpad-bound stripes.
        q: Radix bits of the PRaP merge network (``p = 2**q`` cores).
            Drives the modelled step-2 cycles; the functional merge only
            runs for multi-stripe plans or under ``check_interleave``.
        precision: Value precision for traffic accounting (the functional
            datapath always computes in float64).
        vldi_vector_block_bits: VLDI block width applied to intermediate
            vector indices; None disables vector compression.
        vldi_matrix_block_bits: VLDI block width applied to stripe column
            indices; None disables matrix compression.
        step1_pipelines: P, parallel multiplier/adder-chain sets in step 1.
        hdn: High-degree-node handling; None disables the HDN pipeline.
        check_interleave: Route step-2 assembly through the store-queue
            invariant checker (slower but verifies section 4.2.2).
        backend: Execution-backend name (``"reference"`` or
            ``"vectorized"``); None defers to the ``REPRO_BACKEND``
            environment variable, then the package default.  Both
            backends are bit-compatible -- only wall-clock speed differs.
        plan_cache: Maximum :class:`~repro.core.plan.ExecutionPlan`
            objects an engine retains (LRU).  0 disables caching, so
            every ``run()`` rebuilds matrix-side state.
        strict_validate: Run the full-scan input hardening tier
            (NaN/Inf, index range, duplicate coordinates, RM-COO
            sortedness) on every ``run``/``run_many``; None defers to
            ``REPRO_STRICT_VALIDATE``, then False.  The cheap
            shape/dtype tier always runs.
        telemetry: Collect tracing spans and metrics for every
            ``run``/``run_many`` (surfaced on ``SpMVResult.telemetry``
            and ``engine.metrics()``); None defers to
            ``REPRO_TELEMETRY``, then True.  Telemetry never changes
            results -- outputs are bit-identical either way.
    """

    segment_width: int = None
    q: int = 4
    precision: Precision = Precision.SINGLE
    vldi_vector_block_bits: int = None
    vldi_matrix_block_bits: int = None
    step1_pipelines: int = 8
    hdn: HDNConfig = None
    check_interleave: bool = False
    backend: str = None
    plan_cache: int = 8
    strict_validate: bool = None
    telemetry: bool = None

    def __post_init__(self) -> None:
        if self.segment_width is not None and self.segment_width <= 0:
            raise ConfigurationError("segment_width must be positive")
        if self.q < 0:
            raise ConfigurationError("q must be non-negative")
        if self.step1_pipelines <= 0:
            raise ConfigurationError("step1_pipelines must be positive")
        for width in (self.vldi_vector_block_bits, self.vldi_matrix_block_bits):
            if width is not None and not 1 <= width <= 62:
                raise ConfigurationError("VLDI block width must be in [1, 62]")
        if self.backend is not None:
            from repro.backends import available_backends

            if self.backend not in available_backends():
                raise ConfigurationError(
                    f"unknown backend {self.backend!r}; "
                    f"available: {', '.join(available_backends())}"
                )

    @property
    def n_cores(self) -> int:
        """PRaP merge cores."""
        return 1 << self.q

    def stripe_width(self, n_cols: int) -> int:
        """Execution stripe width for a matrix with ``n_cols`` columns:
        ``segment_width``, or one stripe spanning every column when unset."""
        if self.segment_width is None:
            return max(n_cols, 1)
        return self.segment_width

    def n_stripes(self, n_cols: int) -> int:
        """Column blocks for a matrix with ``n_cols`` columns."""
        return -(-n_cols // self.stripe_width(n_cols))
