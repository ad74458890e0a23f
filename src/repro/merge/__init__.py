"""Multi-way merge machinery (paper sections 3.2 and 4).

This package implements the paper's core contribution at two levels:

* **Functional**: bit-exact merging/accumulation used by the Two-Step
  engine and verified against dense references --
  :func:`merge_accumulate`, :class:`TournamentTree`,
  :class:`repro.merge.prap.PRaPMergeNetwork`.
* **Cycle/resource models**: the binary-tree Merge Core's SRAM-FIFO
  pipeline (:class:`repro.merge.merge_core.MergeCore`), the bitonic radix
  pre-sorter (:mod:`repro.merge.bitonic`), and the two parallelization
  schemes -- partitioning (section 4.1, unscalable) vs PRaP (section 4.2,
  scalable) -- with their prefetch-buffer requirements.
"""

from repro.merge.tournament import TournamentTree, merge_accumulate
from repro.merge.bitonic import bitonic_network, bitonic_sort, stable_radix_sort, comparator_count
from repro.merge.merge_core import MergeCore, MergeCoreConfig
from repro.merge.store_queue import StoreQueue
from repro.merge.prap import PRaPConfig, PRaPMergeNetwork, prap_merge_dense, radix_of
from repro.merge.partitioned import PartitionedMergeConfig, partitioned_merge_dense
from repro.merge.partitioned_sim import PartitionedMergeSim, PartitionedSimConfig, PartitionedSimResult

__all__ = [
    "TournamentTree",
    "merge_accumulate",
    "bitonic_network",
    "bitonic_sort",
    "stable_radix_sort",
    "comparator_count",
    "MergeCore",
    "MergeCoreConfig",
    "StoreQueue",
    "PRaPConfig",
    "PRaPMergeNetwork",
    "prap_merge_dense",
    "radix_of",
    "PartitionedMergeConfig",
    "partitioned_merge_dense",
    "PartitionedMergeSim",
    "PartitionedSimConfig",
    "PartitionedSimResult",
]
