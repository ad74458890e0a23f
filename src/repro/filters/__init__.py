"""Bloom-filter-based High Degree Node handling (paper section 5.3).

Power-law graphs contain nodes with disproportionately many neighbors
(HDNs) that cause accumulation collisions in step 1.  The accelerator
detects them on the fly with an on-chip Bloom filter populated from one
streaming pass over the meta-data, and routes them to a dedicated pipeline.

* :mod:`repro.filters.hashing` -- the XOR-fold hardware hash family.
* :mod:`repro.filters.bloom`   -- standard and one-memory-access Bloom
  filters (Qiao et al. 2011), with the paper's Eq. 1 false-positive model.
* :mod:`repro.filters.hdn`     -- degree thresholding, filter sizing and
  the dual-pipeline dispatch used by step 1.
"""

from repro.filters.hashing import xor_fold_hash, hash_family
from repro.filters.bloom import BloomFilter, OneMemoryAccessBloomFilter, false_positive_rate
from repro.filters.hdn import HDNConfig, HDNDetector, find_hdns, size_bloom_for_hdns

__all__ = [
    "xor_fold_hash",
    "hash_family",
    "BloomFilter",
    "OneMemoryAccessBloomFilter",
    "false_positive_rate",
    "HDNConfig",
    "HDNDetector",
    "find_hdns",
    "size_bloom_for_hdns",
]
