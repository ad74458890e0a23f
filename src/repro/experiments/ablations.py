"""Mechanism and ablation experiments (library-level).

These are not figures in the paper, but machine-checkable versions of its
arguments: the DAM-model bandwidth split, the locality-format contrast,
the HDN pipeline benefit, VLDI against the entropy baseline, the
segment-level ITS schedule, and the analytic-model validation sweep.
Each has a ``render()`` used by the CLI and reused by the benchmark
harness (which adds timing and assertions).
"""

from __future__ import annotations

import numpy as np

from repro.analysis.reporting import format_table


# --------------------------------------------------------------------------
# DAM-model validation: streaming vs random DRAM bandwidth.

def dram_collect():
    """``{pattern: (bytes_per_s, row_hit_rate)}`` on HBM2-class timing."""
    from repro.memory.dram_sim import DRAMSim, DRAMTiming, random_trace, streaming_trace

    timing = DRAMTiming()
    stream_sim = DRAMSim(timing)
    stream_bw = stream_sim.replay(streaming_trace(16 << 20, timing), max_outstanding=1 << 20)
    results = {"stream": (stream_bw, stream_sim.row_hit_rate)}
    for mlp in (4, 10, 64):
        sim = DRAMSim(timing)
        bw = sim.replay(
            random_trace(60_000, 4 << 30, timing, seed=3),
            bytes_per_access=32,
            max_outstanding=mlp,
        )
        results[f"random mlp={mlp}"] = (bw, sim.row_hit_rate)
    return timing, results


def render_dram() -> str:
    """Streaming vs random bandwidth, event-level replay."""
    from repro.memory.dram import HBM2_4STACK

    timing, results = dram_collect()
    rows = [[name, bw / 1e9, f"{hit:.3f}"] for name, (bw, hit) in results.items()]
    rows.append(["(pin peak)", timing.peak_bandwidth / 1e9, ""])
    table = format_table(
        ["access pattern", "achieved GB/s", "row-buffer hit rate"],
        rows,
        title="Event-level DRAM simulation: streaming vs random (HBM2 timing)",
    )
    ratio = results["stream"][0] / results["random mlp=10"][0]
    return table + (
        f"\nstreaming / random(mlp=10) ratio: {ratio:.0f}x "
        f"(DRAMConfig presets assume "
        f"{HBM2_4STACK.stream_bandwidth / HBM2_4STACK.random_bandwidth:.0f}x)"
    )


# --------------------------------------------------------------------------
# Locality-format contrast: SELL-C-sigma padding by structure.

def sell_collect(n: int = 1 << 12, degree: float = 8.0):
    """Per-structure ``(name, nnz, max_degree, slots, padding_overhead)``."""
    from repro.formats.sell import coo_to_sell
    from repro.generators.erdos_renyi import erdos_renyi_graph
    from repro.generators.mesh import mesh_graph
    from repro.generators.rmat import rmat_graph

    graphs = {
        "mesh (banded)": mesh_graph(n, degree, seed=81),
        "Erdős–Rényi": erdos_renyi_graph(n, degree, seed=81),
        "RMAT (power-law)": rmat_graph(int(np.log2(n)), degree, seed=81),
    }
    rows = []
    for name, graph in graphs.items():
        sell = coo_to_sell(graph, chunk=16, sigma=128)
        rows.append(
            (name, graph.nnz, int(graph.row_degrees().max()), sell.stored_slots,
             sell.padding_overhead)
        )
    return rows


def render_sell() -> str:
    """SELL-C-sigma padding overhead vs graph structure."""
    rows = sell_collect()
    table = format_table(
        ["structure", "nnz", "max degree", "SELL slots", "padding overhead"],
        [[n, z, d, s, f"{o:.1%}"] for n, z, d, s, o in rows],
        title="SELL-16-128 padding vs graph structure",
    )
    return table + (
        "\nhub rows force whole chunks to their width: the regularity the "
        "format needs is exactly what large unstructured graphs lack (sec 1)."
    )


# --------------------------------------------------------------------------
# HDN pipeline ablation.

def hdn_collect(scale: int = 13, degree: float = 16.0, segment: int = 2048):
    """``{structure: (graph, stats_without, stats_with, detector)}``."""
    from repro.core.config import TwoStepConfig
    from repro.core.segsum import run_boundaries
    from repro.core.step1 import Step1Stats, account_stripe
    from repro.filters.hdn import HDNConfig, HDNDetector
    from repro.formats.blocking import column_blocks
    from repro.generators.erdos_renyi import erdos_renyi_graph
    from repro.generators.rmat import rmat_graph

    pipelines = TwoStepConfig().step1_pipelines

    def run(graph, with_hdn):
        detector = None
        if with_hdn:
            degrees = graph.row_degrees()
            threshold = int(8 * max(degrees.mean(), 1.0))
            detector = HDNDetector(degrees, HDNConfig(degree_threshold=threshold))
        stats = Step1Stats()
        for block in column_blocks(graph, segment):
            rows = block.matrix.rows
            account_stripe(stats, rows, run_boundaries(rows)[2], pipelines, detector)
        return stats, detector

    powerlaw = rmat_graph(scale, degree, seed=17)
    uniform = erdos_renyi_graph(powerlaw.n_rows, degree, seed=17)
    out = {}
    for name, graph in (("RMAT (power-law)", powerlaw), ("Erdős–Rényi", uniform)):
        without, _ = run(graph, False)
        with_stats, detector = run(graph, True)
        out[name] = (graph, without, with_stats, detector)
    return out


def render_hdn() -> str:
    """HDN pipeline on/off step-1 cycles, power-law vs uniform."""
    results = hdn_collect()
    rows = []
    for name, (graph, without, with_stats, detector) in results.items():
        speedup = without.cycles / with_stats.cycles if with_stats.cycles else 1.0
        rows.append(
            [name, graph.nnz, detector.n_hdns, detector.filter_bytes,
             f"{without.cycles:,.0f}", f"{with_stats.cycles:,.0f}", f"{speedup:.2f}x"]
        )
    table = format_table(
        ["graph", "edges", "HDNs", "filter bytes", "cycles (no HDN pipe)",
         "cycles (HDN pipe)", "speedup"],
        rows,
        title="Ablation: Bloom-filter HDN pipeline in step 1 (section 5.3)",
    )
    return table + (
        "\npower-law graphs gain from routing hub rows to the tuned "
        "accumulator; uniform graphs see no change."
    )


# --------------------------------------------------------------------------
# VLDI vs Rice vs the entropy floor.

def golomb_collect(n_nodes: int = 150_000, degree: float = 3.0, segments=(2_000, 10_000, 50_000)):
    """Per-stripe-width coder comparison rows."""
    from repro.compression.golomb import geometric_entropy_bits, optimal_rice_k
    from repro.compression.vldi import optimal_block_width
    from repro.core.step1 import sample_intermediate_deltas
    from repro.generators.erdos_renyi import erdos_renyi_graph

    graph = erdos_renyi_graph(n_nodes, degree, seed=23)
    rows = []
    for segment in segments:
        deltas = sample_intermediate_deltas(graph, segment, max_stripes=None)
        vldi_block, vldi_sizes = optimal_block_width(deltas)
        rice_k, rice_sizes = optimal_rice_k(deltas)
        rows.append(
            (segment, vldi_block, vldi_sizes[vldi_block] / deltas.size,
             rice_k, rice_sizes[rice_k] / deltas.size, geometric_entropy_bits(deltas))
        )
    return rows


def render_golomb() -> str:
    """VLDI vs Rice coding vs the geometric entropy floor."""
    rows = golomb_collect()
    table = format_table(
        ["stripe width", "VLDI block", "VLDI bits/idx", "Rice k", "Rice bits/idx",
         "entropy floor"],
        [[s, b, f"{v:.2f}", k, f"{r:.2f}", f"{h:.2f}"] for s, b, v, k, r, h in rows],
        title="VLDI vs Rice vs entropy on live intermediate-vector deltas",
    )
    return table + (
        "\nin the operating regime VLDI trails the entropy-informed Rice "
        "baseline by ~20% while keeping a trivial fixed-width decoder."
    )


# --------------------------------------------------------------------------
# Analytic-model validation sweep.

def render_validation() -> str:
    """Analytic traffic model vs measured ledgers over a grid."""
    from repro.analysis.validation import validate_traffic_model

    report = validate_traffic_model()
    rows = [
        [c.n_nodes, c.avg_degree, c.segment_width, c.measured_total / 1e6,
         c.modeled_total / 1e6, f"{c.total_error:.1%}"]
        for c in report.cases
    ]
    table = format_table(
        ["N", "degree", "stripe", "measured MB", "modeled MB", "total err"],
        rows,
        title="Analytic traffic model vs functional engine (identical geometry)",
    )
    return table + (
        f"\nworst total error {report.worst_total_error:.1%}, "
        f"mean {report.mean_total_error:.1%}"
    )


# --------------------------------------------------------------------------
# Time-domain traced replay (Fig. 4 in seconds).

def traced_collect(n_nodes: int = 50_000, degree: float = 3.0, caches=(0, 64 << 10)):
    """``[(cache_bytes, TracedTimes)]`` for the traced comparison."""
    from repro.core.config import TwoStepConfig
    from repro.generators.erdos_renyi import erdos_renyi_graph
    from repro.memory.dram_sim import DRAMTiming
    from repro.simulator.traced import compare_traced

    graph = erdos_renyi_graph(n_nodes, degree, seed=62)
    config = TwoStepConfig(segment_width=max(n_nodes // 10, 1), q=2)
    timing = DRAMTiming()
    return [
        (cache, compare_traced(graph, config, timing, cache_bytes=cache))
        for cache in caches
    ]


def render_traced() -> str:
    """Real DRAM traces of both algorithms, replayed to seconds."""
    results = traced_collect()
    rows = []
    for cache, r in results:
        rows.append(
            [f"{cache >> 10} KiB" if cache else "none",
             r.latency_bound_bytes / 1e6, r.latency_bound_seconds * 1e3,
             r.twostep_bytes / 1e6, r.twostep_seconds * 1e3, f"{r.speedup:.1f}x"]
        )
    table = format_table(
        ["LB cache", "LB MB", "LB ms", "Two-Step MB", "Two-Step ms", "speedup"],
        rows,
        title="Traced DRAM replay (HBM2 timing): bytes advantage becomes time advantage",
    )
    return table + (
        "\nTwo-Step's streaming regions run at near-pin bandwidth; the "
        "latency-bound gathers collapse to the MLP-limited random rate."
    )


# --------------------------------------------------------------------------
# Segment-level ITS schedule (Fig. 15).

def its_schedule_collect(n_nodes: int = 50_000, segment: int = 10_000):
    """``((s1, s2), [(iterations, makespan, sequential, speedup, buffers)])``."""
    from repro.core.config import TwoStepConfig
    from repro.core.schedule import build_its_schedule, sequential_makespan
    from repro.core.segsum import run_boundaries
    from repro.core.step1 import Step1Stats, account_stripe
    from repro.formats.blocking import column_blocks
    from repro.generators.erdos_renyi import erdos_renyi_graph

    graph = erdos_renyi_graph(n_nodes, 3.0, seed=91)
    cfg = TwoStepConfig(segment_width=segment, q=4)
    s1 = []
    for block in column_blocks(graph, segment):
        stats = Step1Stats()
        rows = block.matrix.rows
        account_stripe(stats, rows, run_boundaries(rows)[2], cfg.step1_pipelines)
        s1.append(stats.cycles)
    s2 = [segment / cfg.n_cores] * len(s1)
    s1, s2 = np.asarray(s1), np.asarray(s2)
    rows = []
    for iterations in (1, 2, 4, 8, 16):
        schedule = build_its_schedule(s1, s2, iterations)
        seq = sequential_makespan(s1, s2, iterations)
        rows.append(
            (iterations, schedule.makespan, seq, seq / schedule.makespan,
             schedule.max_resident_segments())
        )
    return (s1, s2), rows


def render_its_schedule() -> str:
    """The segment-level ITS timeline and speedup-vs-iterations table."""
    from repro.analysis.timeline import render_gantt
    from repro.core.schedule import build_its_schedule

    (s1, s2), rows = its_schedule_collect()
    table = format_table(
        ["iterations", "ITS makespan (cyc)", "sequential (cyc)", "speedup", "extra buffers"],
        [[i, f"{m:,.0f}", f"{s:,.0f}", f"{r:.2f}x", b] for i, m, s, r, b in rows],
        title="Segment-level ITS schedule vs sequential TS (measured step-1 cycles)",
    )
    gantt = render_gantt(build_its_schedule(s1, s2, 3), width=68)
    return table + "\n\nTimeline (3 iterations, digits = segment index):\n" + gantt


# --------------------------------------------------------------------------
# SpGEMM on the merge substrate (paper conclusion).

def spgemm_collect(n_nodes: int = 1500, degrees=(2.0, 4.0, 8.0)):
    """Per-degree partial-product accounting rows."""
    from repro.api import create_engine
    from repro.generators.erdos_renyi import erdos_renyi_graph

    engine = create_engine(segment_width=256)
    rows = []
    for degree in degrees:
        graph = erdos_renyi_graph(n_nodes, degree, seed=71)
        report = engine.spgemm(graph, graph).report
        rows.append(
            (degree, graph.nnz, report.partial_records, report.output_records,
             report.compression)
        )
    return rows


def render_spgemm() -> str:
    """SpGEMM partial-product accounting on the merge substrate."""
    rows = spgemm_collect()
    table = format_table(
        ["avg degree", "input nnz", "partial products", "output nnz", "merge reduction"],
        [[d, z, p, o, f"{c:.2f}x"] for d, z, p, o, c in rows],
        title="SpGEMM (A @ A) on the merge substrate",
    )
    return table + (
        "\npartial products scale with row-degree products; the merge "
        "network's accumulation compresses them to the output nonzeros -- "
        "the same role it plays for SpMV intermediate vectors."
    )
