"""Compression study: tuning VLDI for a concrete input.

Walks the section-5.1 methodology on one graph: measure the live
delta-index distribution per scratchpad size, pick the optimal VLDI block
(Fig. 13), quantify the traffic saved per precision (Fig. 14's sweep),
and place VLDI against the Rice/entropy baseline.

Run:  python examples/compression_study.py
"""

import numpy as np

from repro.analysis.reporting import format_table
from repro.compression.golomb import geometric_entropy_bits, optimal_rice_k
from repro.compression.vldi import delta_width_histogram, optimal_block_width
from repro.core.config import TwoStepConfig
from repro.core.records import Precision
from repro.core.step1 import sample_intermediate_deltas
from repro.core.twostep import TwoStepEngine
from repro.generators import erdos_renyi_graph

N_NODES = 120_000
AVG_DEGREE = 3.0


def main() -> None:
    graph = erdos_renyi_graph(N_NODES, AVG_DEGREE, seed=5)
    print(f"graph: {graph.n_rows:,} nodes, {graph.nnz:,} edges\n")

    # 1. Delta distribution and optimal block per scratchpad size (Fig. 13).
    rows = []
    chosen = {}
    for segment in (3_000, 12_000, 60_000):
        deltas = sample_intermediate_deltas(graph, segment, max_stripes=None)
        hist = delta_width_histogram(deltas, max_bits=16)
        peak_bits = int(np.argmax(hist))
        block, sizes = optimal_block_width(deltas)
        rice_k, rice_sizes = optimal_rice_k(deltas)
        chosen[segment] = block
        rows.append(
            [segment, peak_bits, block, f"{sizes[block] / deltas.size:.2f}",
             f"{rice_sizes[rice_k] / deltas.size:.2f}",
             f"{geometric_entropy_bits(deltas):.2f}"]
        )
    print(
        format_table(
            ["stripe width", "peak delta bits", "optimal VLDI block",
             "VLDI bits/idx", "Rice bits/idx", "entropy"],
            rows,
            title="Delta distributions and coder choice (Fig. 13 methodology)",
        )
    )

    # 2. Traffic saved per precision with the tuned block (Fig. 14 sweep).
    segment = 12_000
    block = chosen[segment]
    rows = []
    for precision in (Precision.DOUBLE, Precision.SINGLE, Precision.QUARTER, Precision.BIT):
        plain = TwoStepEngine(TwoStepConfig(segment_width=segment, q=4, precision=precision))
        tuned = TwoStepEngine(
            TwoStepConfig(
                segment_width=segment, q=4, precision=precision,
                vldi_vector_block_bits=block,
            )
        )
        x = np.ones(graph.n_cols)
        _, plain_report = plain.run(graph, x)
        _, tuned_report = tuned.run(graph, x)
        saved = 1 - tuned_report.traffic.total_bytes / plain_report.traffic.total_bytes
        rows.append(
            [precision.name, plain_report.traffic.total_bytes / 1e6,
             tuned_report.traffic.total_bytes / 1e6, f"{saved:.1%}"]
        )
    print(
        format_table(
            ["precision", "uncompressed (MB)", f"VLDI block={block} (MB)", "saved"],
            rows,
            title="\nTraffic saved by the tuned VLDI block (Fig. 14 methodology)",
        )
    )
    print(
        "\nas in the paper: narrower stripes want wider blocks, and the "
        "lower the value precision, the larger VLDI's share of the win."
    )


if __name__ == "__main__":
    main()
