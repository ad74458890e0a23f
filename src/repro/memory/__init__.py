"""Disk Access Machine (DAM) memory-system models.

The paper analyzes SpMV under the DAM model [Aggarwal & Vitter 1988] with
two levels: on-chip storage (fast random access) and off-chip DRAM (slow,
block transfer).  Everything the paper's evaluation argues about is a
function of this model:

* :mod:`repro.memory.traffic`    -- byte-accurate off-chip traffic ledger,
  split into payload categories and cache-line wastage (Fig. 4).
* :mod:`repro.memory.dram`       -- DRAM/HBM channel model: streaming vs
  random bandwidth, row-buffer (page) behaviour, transfer-time estimates.
* :mod:`repro.memory.cache`      -- set-associative cache simulator plus an
  analytic miss model for the latency-bound baseline.
* :mod:`repro.memory.scratchpad` -- banked eDRAM/SRAM/BRAM scratchpad with
  a bank-conflict model for step 1's parallel random reads.
* :mod:`repro.memory.prefetch`   -- the DRAM-page-granular prefetch buffer
  that feeds the merge network (K x dpage, shared across PRaP cores).
* :mod:`repro.memory.energy`     -- energy accounting (pJ/byte, pJ/FLOP,
  instruction-scheduling overhead on COTS cores).
"""

from repro.memory.traffic import TrafficLedger
from repro.memory.dram import DRAMConfig, HBM2_STACK, HBM2_4STACK, DDR4_DUAL_SOCKET, GDDR5, MCDRAM_PHI
from repro.memory.cache import CacheConfig, CacheSim, analytic_miss_rate
from repro.memory.scratchpad import ScratchpadConfig, Scratchpad
from repro.memory.prefetch import PrefetchBuffer, prefetch_buffer_bytes
from repro.memory.dram_sim import DRAMSim, DRAMTiming, streaming_trace, random_trace
from repro.memory.energy import (
    EnergyModel,
    ASIC_16NM_ENERGY,
    FPGA_ENERGY,
    CPU_ENERGY,
    PHI_ENERGY,
    GPU_ENERGY,
)

__all__ = [
    "TrafficLedger",
    "DRAMConfig",
    "HBM2_STACK",
    "HBM2_4STACK",
    "DDR4_DUAL_SOCKET",
    "GDDR5",
    "MCDRAM_PHI",
    "CacheConfig",
    "CacheSim",
    "analytic_miss_rate",
    "ScratchpadConfig",
    "Scratchpad",
    "PrefetchBuffer",
    "prefetch_buffer_bytes",
    "EnergyModel",
    "ASIC_16NM_ENERGY",
    "FPGA_ENERGY",
    "CPU_ENERGY",
    "PHI_ENERGY",
    "GPU_ENERGY",
    "DRAMSim",
    "DRAMTiming",
    "streaming_trace",
    "random_trace",
]
