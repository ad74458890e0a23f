"""Automatic engine configuration from input structure.

The paper tunes three knobs to the input: the VLDI block width (Fig. 13:
depends on stripe geometry), the HDN threshold (section 5.3: depends on
the degree tail) and the stripe width itself (scratchpad capacity).
:func:`autotune` measures the input once (the delta distribution of a
stripe sample's intermediate vectors plus
:mod:`repro.analysis.matrix_stats`) and returns a ready
:class:`~repro.core.config.TwoStepConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.analysis.matrix_stats import MatrixStats, compute_stats
from repro.compression.vldi import optimal_block_width
from repro.core.config import TwoStepConfig
from repro.core.design_points import DesignPoint, TS_ASIC
from repro.core.step1 import sample_intermediate_deltas
from repro.faults.errors import ConfigurationError
from repro.filters.hdn import HDNConfig
from repro.formats.coo import COOMatrix


@dataclass(frozen=True)
class AutotuneReport:
    """What the tuner measured and chose."""

    stats: MatrixStats
    config: TwoStepConfig
    sampled_deltas: int
    vldi_block_bits: int
    hdn_enabled: bool


def autotune(
    matrix: COOMatrix,
    point: DesignPoint = TS_ASIC,
    segment_width: Optional[int] = None,
    enable_vldi: bool = True,
    hdn_skew_threshold: float = 8.0,
) -> AutotuneReport:
    """Choose a :class:`TwoStepConfig` for ``matrix`` on ``point``.

    Decisions:

    * stripe width: the design point's segment capacity, clamped to the
      matrix (simulation-scale inputs fit one stripe otherwise);
    * VLDI block: :func:`optimal_block_width` over sampled live deltas
      (compression skipped when the uncompressed index already fits the
      measured optimum, i.e. nothing to win);
    * HDN pipeline: enabled when the degree skew marks the input as
      power-law, with the threshold from the stats heuristic.

    Args:
        matrix: The input.
        point: Target design point (cores, precision, capacity).
        segment_width: Override the stripe width.  Must not exceed the
            matrix's column count -- a wider stripe is behaviourally
            identical to one full-width stripe, so an oversized explicit
            width is a configuration mistake, not a preference.
        enable_vldi: Allow vector compression.
        hdn_skew_threshold: Degree skew above which HDNs are handled.

    Returns:
        :class:`AutotuneReport` with the chosen configuration.

    Raises:
        ConfigurationError: An explicit ``segment_width`` exceeds
            ``matrix.n_cols``.
    """
    stats = compute_stats(matrix)
    if segment_width is not None and segment_width > max(matrix.n_cols, 1):
        raise ConfigurationError(
            f"segment_width {segment_width} exceeds the matrix's "
            f"{matrix.n_cols} columns; widths past the column count are "
            "behaviourally identical to one full-width stripe"
        )
    width = segment_width or min(point.segment_elements, max(matrix.n_cols, 1))
    deltas = sample_intermediate_deltas(matrix, width) if enable_vldi else np.empty(0)
    vldi_bits = 0
    vldi_block = None
    if deltas.size:
        best, sizes = optimal_block_width(deltas, candidates=range(2, 21))
        # Worth compressing only if it beats the fixed 32-bit field.
        if sizes[best] < deltas.size * 32:
            vldi_block = best
            vldi_bits = best
    hdn = None
    if stats.degree_skew > hdn_skew_threshold:
        hdn = HDNConfig(degree_threshold=stats.suggested_hdn_threshold())
    q = int(np.log2(point.n_merge_cores))
    config = TwoStepConfig(
        segment_width=width,
        q=q,
        vldi_vector_block_bits=vldi_block,
        step1_pipelines=point.step1_pipelines,
        hdn=hdn,
    )
    return AutotuneReport(
        stats=stats,
        config=config,
        sampled_deltas=int(deltas.size),
        vldi_block_bits=vldi_bits,
        hdn_enabled=hdn is not None,
    )
