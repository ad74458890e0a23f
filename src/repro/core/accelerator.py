"""Top-level accelerator facade.

Binds a :class:`~repro.core.design_points.DesignPoint` to the functional
Two-Step engine (simulation scale) and the analytic performance model
(paper scale).  This is the object examples and benchmarks instantiate:

    >>> from repro import Accelerator, TS_ASIC
    >>> acc = Accelerator(TS_ASIC)
    >>> estimate = acc.estimate(n_nodes=10**9, n_edges=3 * 10**9)
    >>> estimate.gteps  # doctest: +SKIP
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.api import EngineOptions, SpMVResult
from repro.core.design_points import DesignPoint
from repro.core.its import ITSEngine
from repro.core.perf import PerfEstimate, estimate_performance
from repro.core.records import Precision
from repro.core.twostep import TwoStepEngine
from repro.faults.errors import ConfigurationError
from repro.formats.coo import COOMatrix
from repro.generators.datasets import DatasetSpec


_PRECISION_BY_BYTES = {1: Precision.QUARTER, 2: Precision.HALF, 4: Precision.SINGLE, 8: Precision.DOUBLE}


class Accelerator:
    """The proposed SpMV accelerator at one design point.

    Satisfies the :class:`repro.api.SpMVEngine` protocol.
    """

    def __init__(
        self,
        point: DesignPoint,
        simulation_segment_width: int = None,
        options: EngineOptions = None,
    ):
        """
        Args:
            point: Hardware design point.
            simulation_segment_width: Stripe width used by the *functional*
                engine at simulation scale.  Defaults to the design point's
                real segment width, which is usually far larger than scaled
                test matrices; pass a small value to exercise multi-stripe
                behaviour on small inputs.
            options: Execution options (:class:`repro.api.EngineOptions`)
                for the functional engine: backend and
                validation/telemetry toggles; None means all defaults.
                Prefer building accelerators through
                :func:`repro.api.create_engine` with
                ``design_point=point``.

        Raises:
            ConfigurationError: ``options`` is not an ``EngineOptions``.
        """
        if options is None:
            options = EngineOptions()
        elif not isinstance(options, EngineOptions):
            raise ConfigurationError(
                "Accelerator options must be an EngineOptions, got "
                f"{type(options).__name__}; build one with "
                "EngineOptions(...) or EngineOptions.from_config(config)"
            )
        self.point = point
        width = simulation_segment_width or point.segment_elements
        q = int(np.log2(point.n_merge_cores))
        # The design point dictates the structural fields; the options
        # surface supplies the execution fields (already env-resolved when
        # the accelerator comes from create_engine).
        execution = dataclasses.replace(
            options,
            segment_width=width,
            q=q,
            precision=_PRECISION_BY_BYTES[point.value_bytes],
            vldi_vector_block_bits=8 if point.vldi else None,
            vldi_matrix_block_bits=None,
            step1_pipelines=point.step1_pipelines,
            design_point=None,
        )
        self.config = execution.to_config()
        self._engine = TwoStepEngine(self.config)

    def metrics(self):
        """Engine-lifetime telemetry metrics (see ``TwoStepEngine.metrics``)."""
        return self._engine.metrics()

    def run(
        self,
        matrix: COOMatrix,
        x: np.ndarray,
        y: np.ndarray | None = None,
        verify: bool = False,
    ) -> SpMVResult:
        """Functional SpMV at simulation scale; see :class:`TwoStepEngine`."""
        return self._engine.run(matrix, x, y, verify=verify)

    def run_many(
        self,
        matrix: COOMatrix,
        X: np.ndarray,
        Y: np.ndarray | None = None,
        verify: bool = False,
    ) -> SpMVResult:
        """Batched multi-RHS SpMV; see :meth:`TwoStepEngine.run_many`."""
        return self._engine.run_many(matrix, X, Y=Y, verify=verify)

    def spgemm(
        self, a: COOMatrix, b: COOMatrix, verify: bool = False
    ):
        """Sparse-sparse product ``C = A @ B``; see :meth:`TwoStepEngine.spgemm`."""
        return self._engine.spgemm(a, b, verify=verify)

    def run_spgemm_many(self, a: COOMatrix, bs, verify: bool = False) -> list:
        """Batched SpGEMM; see :meth:`TwoStepEngine.run_spgemm_many`."""
        return self._engine.run_spgemm_many(a, bs, verify=verify)

    def plan(self, matrix: COOMatrix):
        """The functional engine's (cached) execution plan for ``matrix``."""
        return self._engine.plan(matrix)

    def run_iterative(self, matrix: COOMatrix, x0: np.ndarray, n_iterations: int, transform=None):
        """Iterative SpMV; applies ITS overlap accounting when enabled."""
        if not self.point.its:
            raise ValueError(f"{self.point.name} does not implement iteration overlap")
        its = ITSEngine(self.config, max_dimension=None)
        return its.run_iterations(matrix, x0, n_iterations, transform=transform)

    def estimate(self, n_nodes: int, n_edges: int, check_capacity: bool = True) -> PerfEstimate:
        """Analytic performance at full problem scale."""
        return estimate_performance(self.point, n_nodes, n_edges, check_capacity=check_capacity)

    def estimate_dataset(self, spec: DatasetSpec, check_capacity: bool = True) -> PerfEstimate:
        """Analytic performance on one of the paper's datasets."""
        return self.estimate(spec.n_nodes, spec.n_edges, check_capacity=check_capacity)

    def supports(self, n_nodes: int) -> bool:
        """True when the dimension fits the design point's maximum."""
        return n_nodes <= self.point.max_nodes
