"""Figure 13: delta-index width distribution and the optimal VLDI block.

Paper setup: Erdős–Rényi 80M x 80M, average degree 3, comparing a 5 MB
scratchpad (narrow stripes, long deltas) with 35 MB (wide stripes, short
deltas).  The run is 1:400 scaled with the stripe geometry scaled
identically, so the per-stripe nonzero density -- which fixes the delta
distribution -- matches the paper's.
"""

from __future__ import annotations

from repro.analysis.reporting import format_table
from repro.compression.vldi import delta_width_histogram, optimal_block_width
from repro.core.step1 import sample_intermediate_deltas
from repro.generators.erdos_renyi import erdos_renyi_graph

SCALE = 400  # 80M -> 200k nodes
N_NODES = 80_000_000 // SCALE
AVG_DEGREE = 3.0
SEGMENTS = {
    "5MB": (5 << 20) // 4 // SCALE,
    "35MB": (35 << 20) // 4 // SCALE,
}
PAPER_OPTIMA = {"5MB": 8, "35MB": 4}


def collect() -> dict:
    """Per-scratchpad-size ``(histogram, optimal_block_bits)``."""
    graph = erdos_renyi_graph(N_NODES, AVG_DEGREE, seed=13)
    out = {}
    for label, segment in SEGMENTS.items():
        deltas = sample_intermediate_deltas(graph, segment, max_stripes=None)
        hist = delta_width_histogram(deltas, max_bits=12)
        best, _ = optimal_block_width(deltas, candidates=range(1, 17))
        out[label] = (hist, best)
    return out


def render() -> str:
    """The regenerated Fig. 13 as text."""
    results = collect()
    sections = []
    for label, segment in SEGMENTS.items():
        hist, best = results[label]
        rows = [[b, hist[b]] for b in range(1, 13) if hist[b] > 0]
        sections.append(
            format_table(
                ["delta bits", "probability"],
                rows,
                title=(
                    f"on-chip {label} (stripe width {segment}): optimal block "
                    f"{best} bits / string {best + 1} bits "
                    f"(paper: block {PAPER_OPTIMA[label]} / string {PAPER_OPTIMA[label] + 1})"
                ),
            )
        )
    narrow = results["5MB"][1]
    wide = results["35MB"][1]
    sections.append(
        "shape check: smaller scratchpad -> wider optimal VLDI block: "
        f"{narrow} > {wide} = {narrow > wide}"
    )
    return "\n\n".join(sections)
