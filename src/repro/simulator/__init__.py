"""Clocked (cycle-level) simulation of the full accelerator.

Where :mod:`repro.core` runs the algorithms functionally and accounts
traffic/cycles analytically, this package *clocks* the datapaths on real
record streams, so stalls emerge from the simulated microarchitecture
instead of being assumed:

* :mod:`repro.simulator.step1_sim` -- P multiplier/adder-chain pipelines
  fed one record per pipeline per cycle, with scratchpad bank conflicts
  detected from the actual column addresses and accumulator hazards from
  the actual row runs (optionally bypassed by the HDN pipeline).
* :mod:`repro.simulator.step2_sim` -- per-radix merge cores consuming
  page-granular prefetches with a configurable DRAM fetch latency; stalls
  happen when a core's next record is still in flight.
* :mod:`repro.simulator.system` -- schedules the two phases sequentially
  (TS) or overlapped (ITS) and reports per-phase cycles, utilization and
  achieved bandwidth, cross-checkable against the analytic model.
"""

from repro.simulator.step1_sim import Step1CycleSim, Step1SimConfig, Step1SimResult
from repro.simulator.step2_sim import Step2CycleSim, Step2SimConfig, Step2SimResult
from repro.simulator.system import SystemSim, SystemReport
from repro.simulator.traced import TracedTimes, compare_traced, latency_bound_trace_time, twostep_trace_time

__all__ = [
    "Step1CycleSim",
    "Step1SimConfig",
    "Step1SimResult",
    "Step2CycleSim",
    "Step2SimConfig",
    "Step2SimResult",
    "SystemSim",
    "SystemReport",
    "TracedTimes",
    "compare_traced",
    "latency_bound_trace_time",
    "twostep_trace_time",
]
