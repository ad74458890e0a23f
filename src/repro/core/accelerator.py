"""The accelerator: the Two-Step engine bound to a design point.

:class:`Accelerator` is a :class:`~repro.core.twostep.TwoStepEngine`
whose structural configuration comes from a
:class:`~repro.core.design_points.DesignPoint`, so it runs SpMV at
simulation scale and adds the analytic performance model at paper
scale.  This is the object examples and benchmarks instantiate:

    >>> from repro import Accelerator, TS_ASIC
    >>> acc = Accelerator(TS_ASIC)
    >>> estimate = acc.estimate(n_nodes=10**9, n_edges=3 * 10**9)
    >>> estimate.gteps  # doctest: +SKIP
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.api import _as_config
from repro.core.config import TwoStepConfig
from repro.core.design_points import DesignPoint
from repro.core.its import ITSEngine
from repro.core.perf import PerfEstimate, estimate_performance
from repro.core.records import Precision
from repro.core.twostep import TwoStepEngine
from repro.formats.coo import COOMatrix
from repro.generators.datasets import DatasetSpec


_PRECISION_BY_BYTES = {1: Precision.QUARTER, 2: Precision.HALF, 4: Precision.SINGLE, 8: Precision.DOUBLE}


class Accelerator(TwoStepEngine):
    """The proposed SpMV accelerator at one design point.

    A :class:`TwoStepEngine` (so it satisfies the
    :class:`repro.api.SpMVEngine` protocol) whose structural fields come
    from ``point``.
    """

    def __init__(
        self,
        point: DesignPoint,
        simulation_segment_width: int = None,
        config: TwoStepConfig = None,
    ):
        """
        Args:
            point: Hardware design point.
            simulation_segment_width: Stripe width used by the *functional*
                engine at simulation scale.  Defaults to the design point's
                real segment width, which is usually far larger than scaled
                test matrices; pass a small value to exercise multi-stripe
                behaviour on small inputs.
            config: Settings for the functional engine (backend,
                validation, telemetry, HDN, ...); None means all
                defaults.  The design point overrides its structural
                fields (stripe width, merge cores, precision, VLDI,
                step-1 pipelines).

        Raises:
            ConfigurationError: ``config`` is not a ``TwoStepConfig``.
        """
        self.point = point
        width = simulation_segment_width or point.segment_elements
        super().__init__(
            dataclasses.replace(
                _as_config(config),
                segment_width=width,
                q=int(np.log2(point.n_merge_cores)),
                precision=_PRECISION_BY_BYTES[point.value_bytes],
                vldi_vector_block_bits=8 if point.vldi else None,
                vldi_matrix_block_bits=None,
                step1_pipelines=point.step1_pipelines,
            )
        )

    def run_iterative(self, matrix: COOMatrix, x0: np.ndarray, n_iterations: int, transform=None):
        """Iterative SpMV; applies ITS overlap accounting when enabled."""
        if not self.point.its:
            raise ValueError(f"{self.point.name} does not implement iteration overlap")
        its = ITSEngine(self, max_dimension=None)
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
