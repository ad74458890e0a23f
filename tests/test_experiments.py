"""Tests for the library-level experiment registry."""

import pytest

from repro.experiments import EXPERIMENTS, run_experiment
from repro.experiments import (
    fig04_traffic,
    fig17_18_custom_hw,
    tab01_memory,
    tab02_design_points,
)
from repro.core.design_points import ASIC_POINTS, FPGA_POINTS


def test_registry_covers_every_evaluation_artifact():
    expected = {
        "fig02", "fig04", "tab01", "tab02", "fig13", "fig14",
        "fig17", "fig18", "fig19", "fig20", "fig21", "fig22", "bloom",
        "dram", "sell", "hdn", "golomb", "validation",
        "traced", "its-schedule", "spgemm",
    }
    assert set(EXPERIMENTS) == expected


def test_run_experiment_unknown_id():
    with pytest.raises(KeyError):
        run_experiment("fig99")


@pytest.mark.parametrize("exp_id", ["tab01", "tab02", "fig04"])
def test_cheap_experiments_render(exp_id):
    text = run_experiment(exp_id)
    assert len(text) > 100
    assert "paper" in text.lower() or "Fig" in text or "Table" in text


def test_fig04_collect_structure():
    lb, ts = fig04_traffic.collect()
    assert lb.total_bytes > 0 and ts.total_bytes > 0
    assert ts.cache_line_wastage_bytes == 0.0


def test_tab01_collect_has_all_rows():
    rows = tab01_memory.collect()
    assert len(rows) == 6  # 4 prior + TS + ITS


def test_tab02_collect_matches_design_points():
    rows = tab02_design_points.collect()
    assert len(rows) == 7


def test_custom_hw_collect_group_shapes():
    labels, series, ratios = fig17_18_custom_hw.collect(ASIC_POINTS)
    assert len(labels) == 11  # Table 4 graphs
    assert set(series) == {"benchmark"} | {p.name for p in ASIC_POINTS}
    assert all(len(v) == 11 for v in series.values())
    assert len(ratios) == 11 * len(ASIC_POINTS)


def test_custom_hw_collect_fpga_has_capacity_gaps():
    _, series, _ = fig17_18_custom_hw.collect(FPGA_POINTS)
    # TW (41.6M) exceeds ITS_FPGA2's 33.6M: at least one n/a.
    assert any(v is None for vals in series.values() for v in vals)


def test_cli_figure_command(capsys):
    from repro.cli import main

    assert main(["figure", "--list"]) == 0
    out = capsys.readouterr().out
    assert "fig17" in out and "bloom" in out
    assert main(["figure", "tab01"]) == 0
    out = capsys.readouterr().out
    assert "Table 1" in out
