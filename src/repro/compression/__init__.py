"""Meta-data compression (paper section 5.1).

Two-Step's overhead is the DRAM round trip of the intermediate sparse
vectors; VLDI (Variable Length Delta Index) compresses their index
meta-data.  Indices are first delta-encoded (:mod:`repro.compression.delta`
-- valid because Two-Step generates and consumes them strictly
sequentially), then each delta is split into fixed-width blocks prefixed by
a continuation bit (:mod:`repro.compression.vldi`).

The optimal block width trades the per-string continuation-bit overhead
against padding waste and depends on the stripe width, i.e. on the on-chip
memory size (Fig. 13); :func:`optimal_block_width` performs that search and
:func:`delta_width_histogram` reproduces the distribution plot.
"""

from repro.compression.delta import delta_encode, delta_decode, stripe_column_deltas
from repro.compression.golomb import (
    RiceCodec,
    geometric_entropy_bits,
    optimal_rice_k,
    rice_encoded_bits,
)
from repro.compression.vldi import (
    VLDICodec,
    encoded_bits,
    total_encoded_bits,
    optimal_block_width,
    delta_width_histogram,
)

__all__ = [
    "delta_encode",
    "delta_decode",
    "stripe_column_deltas",
    "VLDICodec",
    "encoded_bits",
    "total_encoded_bits",
    "optimal_block_width",
    "delta_width_histogram",
    "RiceCodec",
    "geometric_entropy_bits",
    "optimal_rice_k",
    "rice_encoded_bits",
]
