"""repro -- Two-Step SpMV with scalable multi-way merge parallelization.

Reproduction of Sadi et al., "Efficient SpMV Operation for Large and
Highly Sparse Matrices using Scalable Multi-way Merge Parallelization"
(MICRO-52, 2019).

Quickstart::

    import numpy as np
    from repro import create_engine
    from repro.generators import erdos_renyi_graph

    graph = erdos_renyi_graph(n_nodes=100_000, avg_degree=3, seed=7)
    x = np.random.default_rng(7).uniform(size=graph.n_cols)
    engine = create_engine()       # one stripe, derived from the matrix
    y, report = engine.run(graph, x)
    assert np.allclose(y, graph.spmv(x))
    modelled = create_engine(segment_width=8_192, q=4)  # 13 stripes + PRaP merge
    print(modelled.run(graph, x).report.traffic)

Subpackages: :mod:`repro.core` (Two-Step, ITS, design points, performance
model), :mod:`repro.backends` (pluggable reference/vectorized execution
kernels), :mod:`repro.merge` (merge cores, bitonic pre-sorter, PRaP),
:mod:`repro.formats`, :mod:`repro.generators`, :mod:`repro.memory`,
:mod:`repro.compression` (VLDI), :mod:`repro.filters` (Bloom/HDN),
:mod:`repro.baselines`, :mod:`repro.apps`, :mod:`repro.analysis`,
:mod:`repro.faults` (typed errors, input hardening, fault injection),
:mod:`repro.telemetry` (tracing spans, metrics registry, Chrome trace export).
The public call surface is defined by :mod:`repro.api`: engines satisfy
the :class:`~repro.api.SpMVEngine` protocol and return
:class:`~repro.api.SpMVResult` (tuple-unpacking compatible).
"""

from repro.api import SpMVEngine, SpMVResult, create_engine
from repro.backends import available_backends, get_backend, resolve_backend
from repro.faults import (
    ConfigurationError,
    FaultError,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    InvalidMatrixError,
    InvalidVectorError,
    WorkerCrashError,
    inject_faults,
    validate_inputs,
)
from repro.core import (
    Accelerator,
    ALL_DESIGN_POINTS,
    ASIC_POINTS,
    FPGA_POINTS,
    DesignPoint,
    ITS_ASIC,
    ITS_FPGA1,
    ITS_FPGA2,
    ITS_VC_ASIC,
    ITSEngine,
    PerfEstimate,
    Precision,
    TS_ASIC,
    TS_FPGA1,
    TS_FPGA2,
    TwoStepConfig,
    TwoStepEngine,
    estimate_performance,
    get_design_point,
    reference_spmv,
)
from repro.formats import COOMatrix, CSRMatrix, CSCMatrix
from repro.telemetry import (
    MetricsRegistry,
    TelemetryReport,
    Tracer,
    combine_reports,
    telemetry_session,
)

__version__ = "1.0.0"

__all__ = [
    "Accelerator",
    "SpMVEngine",
    "SpMVResult",
    "create_engine",
    "available_backends",
    "get_backend",
    "resolve_backend",
    "ALL_DESIGN_POINTS",
    "ASIC_POINTS",
    "FPGA_POINTS",
    "DesignPoint",
    "TS_ASIC",
    "ITS_ASIC",
    "ITS_VC_ASIC",
    "TS_FPGA1",
    "ITS_FPGA1",
    "TS_FPGA2",
    "ITS_FPGA2",
    "ITSEngine",
    "PerfEstimate",
    "Precision",
    "TwoStepConfig",
    "TwoStepEngine",
    "estimate_performance",
    "get_design_point",
    "reference_spmv",
    "COOMatrix",
    "CSRMatrix",
    "CSCMatrix",
    "ConfigurationError",
    "FaultError",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "InvalidMatrixError",
    "InvalidVectorError",
    "WorkerCrashError",
    "inject_faults",
    "validate_inputs",
    "MetricsRegistry",
    "TelemetryReport",
    "Tracer",
    "combine_reports",
    "telemetry_session",
    "__version__",
]
