"""Baselines the paper compares against (section 7).

* :mod:`repro.baselines.latency_bound` -- the conventional cache-based
  SpMV whose random ``x`` gathers stall on DRAM latency (Fig. 4's
  counterpart to Two-Step); both a trace-driven simulator (small scale)
  and the analytic model (paper scale).
* :mod:`repro.baselines.cpu_model`     -- MKL on dual-socket Xeon E5 and
  the Xeon Phi 5110P co-processor (Figs. 21-22).
* :mod:`repro.baselines.gpu_model`     -- the 8-node Tesla M2050 PageRank
  cluster (Figs. 19-20).
* :mod:`repro.baselines.custom_hw`     -- reported numbers for the custom
  hardware benchmarks BM1_ASIC / BM1_FPGA / BM2_FPGA (Figs. 17-18).
"""

from repro.baselines.latency_bound import (
    latency_bound_traffic,
    simulate_latency_bound,
    LatencyBoundEstimate,
    estimate_latency_bound,
)
from repro.baselines.merge_path import MergePathStats, merge_path_search, merge_path_spmv
from repro.baselines.cpu_model import CPUPlatform, XEON_E5_MKL, XEON_PHI_5110, BaselineEstimate
from repro.baselines.gpu_model import GPUCluster, TESLA_M2050_CLUSTER
from repro.baselines.custom_hw import CUSTOM_BENCHMARKS, reported_gteps

__all__ = [
    "latency_bound_traffic",
    "simulate_latency_bound",
    "LatencyBoundEstimate",
    "estimate_latency_bound",
    "MergePathStats",
    "merge_path_search",
    "merge_path_spmv",
    "CPUPlatform",
    "XEON_E5_MKL",
    "XEON_PHI_5110",
    "BaselineEstimate",
    "GPUCluster",
    "TESLA_M2050_CLUSTER",
    "CUSTOM_BENCHMARKS",
    "reported_gteps",
]
