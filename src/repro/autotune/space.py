"""Declarative search space for the per-matrix tuning study.

A :class:`Component` names one tunable knob (a :data:`~repro.autotune.
profile.KNOB_FIELDS` entry) and the candidate values worth trying for
it; a :class:`SearchSpace` is an ordered tuple of components, swept in
order by :class:`~repro.autotune.study.TuningStudy`.  The order encodes
the greedy sweep's coordinate-descent sequence: structure first (stripe
width, merge radix), then execution tier, then the feature toggles whose
benefit depends on the structure already chosen.

:func:`default_search_space` builds the space the paper's tuning story
implies (Fig. 13, section 5.3): stripe width from the column count, merge
radix from the residue-class overhead, VLDI width from the sampled delta
distribution, HDN threshold from the degree tail -- each as *candidates*
to measure, not heuristics to trust.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.api import SIMULATION_SEGMENT_WIDTH
from repro.autotune.profile import KNOB_FIELDS, _profile_error
from repro.backends.native import numba_available


def _dedupe(values) -> tuple:
    """Order-preserving dedupe (None-safe)."""
    seen = []
    for value in values:
        if value not in seen:
            seen.append(value)
    return tuple(seen)


@dataclass(frozen=True)
class Component:
    """One tunable knob and the candidate values to measure for it.

    Attributes:
        name: Display name in reports (defaults to the knob).
        knob: The :data:`KNOB_FIELDS` entry this component sweeps.
        candidates: Values to try, in preference order.  ``None`` means
            "package default / feature off" for nullable knobs.
        serving: True for knobs measured in the serving phase (batched
            ``run_many`` throughput) rather than single-RHS latency.
    """

    knob: str
    candidates: tuple
    name: str = ""
    serving: bool = False

    def __post_init__(self) -> None:
        if self.knob not in KNOB_FIELDS:
            raise _profile_error(
                f"component sweeps unknown knob {self.knob!r}; "
                f"valid knobs: {', '.join(KNOB_FIELDS)}"
            )
        if not self.candidates:
            raise _profile_error(f"component {self.knob!r} has no candidates")
        object.__setattr__(self, "candidates", _dedupe(self.candidates))
        if not self.name:
            object.__setattr__(self, "name", self.knob)


@dataclass(frozen=True)
class SearchSpace:
    """An ordered collection of :class:`Component`\\ s.

    Iteration order is sweep order; the greedy study fixes each
    component's winner before moving to the next.
    """

    components: tuple = field(default_factory=tuple)

    def __post_init__(self) -> None:
        knobs = [c.knob for c in self.components]
        if len(knobs) != len(set(knobs)):
            raise _profile_error("search space declares a knob twice")

    def __iter__(self):
        return iter(self.components)

    def __len__(self) -> int:
        return len(self.components)

    @property
    def n_candidates(self) -> int:
        """Total candidate values across all components."""
        return sum(len(c.candidates) for c in self.components)

    def describe(self) -> dict:
        """JSON-native summary (for reports)."""
        return {
            c.knob: {"candidates": list(c.candidates), "serving": c.serving}
            for c in self.components
        }


def _segment_width_candidates(n_cols: int) -> tuple:
    """Stripe widths worth measuring for a matrix with ``n_cols`` columns.

    One stripe (no merge work at all), a couple of even splits, and the
    paper's scratchpad-sized width -- all capped at ``n_cols`` since wider
    stripes are behaviourally identical to one full-width stripe.
    """
    n_cols = max(int(n_cols), 1)
    raw = [n_cols, -(-n_cols // 2), -(-n_cols // 4), SIMULATION_SEGMENT_WIDTH, 2048]
    return _dedupe(w for w in raw if 1 <= w <= n_cols) or (n_cols,)


def default_search_space(
    matrix=None,
    include_serving: bool = True,
) -> SearchSpace:
    """The standard knob space, shaped to ``matrix`` when one is given.

    Args:
        matrix: Optional RM-COO input; when present, stripe-width
            candidates come from its column count, the VLDI candidate
            from its sampled intermediate-delta distribution and the HDN
            candidate from its degree tail (both via the structural
            heuristics in :mod:`repro.core.autotune`).
        include_serving: Include the serving-side ``max_batch``
            component (measured on batched ``run_many`` throughput).

    The ``backend`` and ``n_jobs`` components are offered only when
    Numba is installed: without it ``native`` runs the vectorized
    kernels and ignores ``n_jobs``, so both would be measured no-ops.
    ``n_jobs`` (``native`` ``prange`` threads) also needs a multi-core
    host.
    """
    n_cols = matrix.n_cols if matrix is not None else 1 << 20

    vldi_candidates = [None]
    hdn_candidates = [None]
    if matrix is not None and matrix.nnz:
        from repro.analysis.matrix_stats import compute_stats
        from repro.compression.vldi import optimal_block_width
        from repro.core.autotune import sample_intermediate_deltas

        width = min(SIMULATION_SEGMENT_WIDTH, max(n_cols, 1))
        deltas = sample_intermediate_deltas(matrix, width, max_records=1 << 18)
        if deltas.size:
            best, _sizes = optimal_block_width(deltas, candidates=range(2, 21))
            vldi_candidates.append(int(best))
        stats = compute_stats(matrix)
        if stats.degree_skew > 4.0:
            hdn_candidates.append(int(stats.suggested_hdn_threshold()))

    jit = numba_available()
    components = [
        Component("segment_width", _segment_width_candidates(n_cols)),
        Component("q", (4, 2, 1, 0)),
    ]
    if jit:
        components.append(Component("backend", ("vectorized", "native")))
    components += [
        Component("vldi_vector_block_bits", tuple(vldi_candidates), name="vldi"),
        Component("hdn_threshold", tuple(hdn_candidates), name="hdn"),
    ]
    if jit and (os.cpu_count() or 1) > 1:
        components.append(Component("n_jobs", (None, 2, os.cpu_count() or 2)))
    if include_serving:
        components.append(
            Component("max_batch", (8, 32, 128), serving=True)
        )
    return SearchSpace(tuple(components))


__all__ = ["Component", "SearchSpace", "default_search_space"]
