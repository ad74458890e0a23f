"""Library-level regeneration of every table and figure in the paper.

Each module exposes ``collect()`` (raw numbers) and ``render()`` (the
formatted table/figure text); the benchmark harness wraps these with
timing and shape assertions, and the CLI exposes them as
``repro figure <id>``.

Registry ids match the paper: ``fig04``, ``tab01``, ``tab02``, ``fig13``,
``fig14``, ``fig17`` .. ``fig22``, ``bloom`` (the section-5.3.1 sizing
study), plus the mechanism/ablation studies ``dram``, ``sell``, ``hdn``,
``golomb`` and ``validation``.
"""

from repro.experiments import (
    ablations,
    bloom_sizing,
    fig02_asic_specs,
    fig04_traffic,
    fig13_vldi_width,
    fig14_vldi_traffic,
    fig17_18_custom_hw,
    fig19_20_gpu,
    fig21_22_cpu,
    tab01_memory,
    tab02_design_points,
)

#: id -> (description, zero-argument render callable)
EXPERIMENTS = {
    "fig02": ("16nm ASIC spec sheet (area/power roll-up)", fig02_asic_specs.render),
    "fig04": ("off-chip traffic: latency-bound vs Two-Step", fig04_traffic.render),
    "tab01": ("on-chip memory vs max dimension", tab01_memory.render),
    "tab02": ("design points: max nodes + sustained GB/s", tab02_design_points.render),
    "fig13": ("delta-width distribution & optimal VLDI block", fig13_vldi_width.render),
    "fig14": ("traffic vs precision under VLDI", fig14_vldi_traffic.render),
    "fig17": ("GTEPS: ASIC vs custom hardware", fig17_18_custom_hw.render_asic),
    "fig18": ("GTEPS: FPGA vs custom hardware", fig17_18_custom_hw.render_fpga),
    "fig19": ("GTEPS + energy: ASIC vs GPU cluster", fig19_20_gpu.render_asic),
    "fig20": ("GTEPS + energy: FPGA vs GPU cluster", fig19_20_gpu.render_fpga),
    "fig21": ("GTEPS + energy: ASIC vs CPU/Phi", fig21_22_cpu.render_asic),
    "fig22": ("GTEPS + energy: FPGA vs CPU/Phi", fig21_22_cpu.render_fpga),
    "bloom": ("Bloom filter HDN sizing (Eq. 1)", bloom_sizing.render),
    "dram": ("streaming vs random DRAM bandwidth (DAM model)", ablations.render_dram),
    "sell": ("SELL-C-sigma padding vs graph structure", ablations.render_sell),
    "hdn": ("HDN-pipeline ablation, power-law vs uniform", ablations.render_hdn),
    "golomb": ("VLDI vs Rice vs entropy floor", ablations.render_golomb),
    "validation": ("analytic traffic model vs measured ledgers", ablations.render_validation),
    "traced": ("time-domain DRAM trace replay (Fig. 4 in seconds)", ablations.render_traced),
    "its-schedule": ("segment-level ITS pipeline timeline (Fig. 15)", ablations.render_its_schedule),
    "spgemm": ("SpGEMM on the merge substrate (conclusion)", ablations.render_spgemm),
}


def run_experiment(experiment_id: str) -> str:
    """Render one experiment by id.

    Raises:
        KeyError: For unknown ids.
    """
    try:
        _, render = EXPERIMENTS[experiment_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; known: {sorted(EXPERIMENTS)}"
        ) from None
    return render()


__all__ = ["EXPERIMENTS", "run_experiment"]
