"""The paper's primary contribution: Two-Step SpMV and its accelerator.

* :mod:`repro.core.twostep` -- the functional, instrumented Two-Step
  engine (section 2) built on the PRaP merge network.
* :mod:`repro.core.step1` / :mod:`repro.core.step2` -- the two phases'
  structure-only models (statistics, intermediate-vector deltas).
* :mod:`repro.core.its` -- Iteration-overlapped Two-Step (section 5.2).
* :mod:`repro.core.design_points` -- Table 2's ASIC/FPGA variants.
* :mod:`repro.core.perf` -- analytic traffic/time/energy model at paper
  scale, validated against the functional engine at simulation scale.
* :mod:`repro.core.accelerator` -- the engine bound to a design point.
"""

from repro.core.accelerator import Accelerator
from repro.core.config import TwoStepConfig
from repro.core.design_points import (
    ALL_DESIGN_POINTS,
    ASIC_POINTS,
    FPGA_POINTS,
    ITS_ASIC,
    ITS_FPGA1,
    ITS_FPGA2,
    ITS_VC_ASIC,
    TS_ASIC,
    TS_FPGA1,
    TS_FPGA2,
    DesignPoint,
    get_design_point,
    with_vector_buffer,
)
from repro.core.its import ITSEngine, ITSRunReport
from repro.core.perf import (
    IterativeEstimate,
    PerfEstimate,
    estimate_iterative,
    estimate_performance,
    intermediate_records,
    twostep_traffic,
)
from repro.core.records import Precision, index_bytes, record_bytes
from repro.core.spgemm import spgemm
from repro.core.spmspv import spmspv, spmspv_dense_reference
from repro.core.schedule import ITSSchedule, build_its_schedule, sequential_makespan
from repro.core.autotune import AutotuneReport, autotune
from repro.core.step1 import Step1Stats
from repro.core.step2 import Step2Stats
from repro.core.twostep import TwoStepEngine, TwoStepReport, reference_spmv

__all__ = [
    "Accelerator",
    "TwoStepConfig",
    "DesignPoint",
    "ALL_DESIGN_POINTS",
    "ASIC_POINTS",
    "FPGA_POINTS",
    "TS_ASIC",
    "ITS_ASIC",
    "ITS_VC_ASIC",
    "TS_FPGA1",
    "ITS_FPGA1",
    "TS_FPGA2",
    "ITS_FPGA2",
    "get_design_point",
    "with_vector_buffer",
    "ITSEngine",
    "ITSRunReport",
    "PerfEstimate",
    "IterativeEstimate",
    "estimate_iterative",
    "estimate_performance",
    "intermediate_records",
    "twostep_traffic",
    "Precision",
    "index_bytes",
    "record_bytes",
    "Step1Stats",
    "Step2Stats",
    "TwoStepEngine",
    "TwoStepReport",
    "reference_spmv",
    "spgemm",
    "spmspv",
    "spmspv_dense_reference",
    "ITSSchedule",
    "build_its_schedule",
    "sequential_makespan",
    "AutotuneReport",
    "autotune",
]
