"""Tests for the library-level experiment registry."""

import pytest

from repro.experiments import EXPERIMENTS, run_experiment
from repro.experiments import (
    ablations,
    fig04_traffic,
    fig13_vldi_width,
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


# The step-1 experiments read structure only (intermediate-vector deltas,
# step-1 statistics).  Their small-scale values are pinned.


@pytest.mark.parametrize("exp_id", ["hdn", "its-schedule"])
def test_step1_ablations_render(exp_id):
    assert len(run_experiment(exp_id)) > 100


def test_fig13_collect_pinned(monkeypatch):
    monkeypatch.setattr(fig13_vldi_width, "N_NODES", 4000)
    monkeypatch.setattr(fig13_vldi_width, "SEGMENTS", {"5MB": 50, "35MB": 400})
    results = fig13_vldi_width.collect()
    narrow_hist, narrow_best = results["5MB"]
    wide_hist, wide_best = results["35MB"]
    assert (narrow_best, wide_best) == (3, 2)
    assert narrow_hist.tolist() == pytest.approx(
        [0.0, 0.03644240570846075, 0.06880733944954129, 0.12385321100917432,
         0.21092422697927285, 0.2521236833163439, 0.21372748895684676,
         0.08571185864763846, 0.008239891267414203, 0.00016989466530750936,
         0.0, 0.0, 0.0],
        rel=1e-12,
    )
    assert wide_hist.tolist() == pytest.approx(
        [0.0, 0.25815479637135685, 0.33690407257286237, 0.28324647751399346,
         0.1106929164254005, 0.011001737116386797, 0.0, 0.0, 0.0, 0.0, 0.0,
         0.0, 0.0],
        rel=1e-12,
    )


def test_golomb_collect_pinned():
    rows = ablations.golomb_collect(n_nodes=3000, degree=3.0, segments=(100, 500, 2000))
    expected = [
        (100, 2, 5.877137870855148, 3, 4.80826061663758, 4.75464230810457),
        (500, 2, 3.6534945858529038, 0, 2.530305161018141, 2.4495355641142758),
        (2000, 1, 2.5079646017699115, 0, 1.3269911504424778, 1.0689539937086652),
    ]
    for row, pinned in zip(rows, expected, strict=True):
        assert row[:2] == pinned[:2] and row[3] == pinned[3]
        assert [row[2], row[4], row[5]] == pytest.approx(
            [pinned[2], pinned[4], pinned[5]], rel=1e-12
        )


def test_hdn_collect_pinned():
    results = ablations.hdn_collect(scale=9, degree=8.0, segment=128)
    # nnz, cycles without / with the HDN pipe, records, HDN records,
    # general records, false-positive records, HDNs, filter bytes.
    expected = {
        "RMAT (power-law)": (3124, 968.296875, 475.921875, 815, 767, 2357, 22, 10, 16),
        "Erdős–Rényi": (4063, 618.97265625, 618.97265625, 1788, 0, 4063, 0, 0, 16),
    }
    assert list(results) == list(expected)
    for name, (graph, without, with_hdn, detector) in results.items():
        assert (
            graph.nnz, without.cycles, with_hdn.cycles, without.output_records,
            with_hdn.hdn_records, with_hdn.general_records,
            with_hdn.hdn_false_positive_records, detector.n_hdns,
            detector.filter_bytes,
        ) == expected[name], name
        assert without.hdn_records == 0 and without.general_records == graph.nnz


def test_its_schedule_collect_pinned():
    (s1, s2), rows = ablations.its_schedule_collect(n_nodes=2000, segment=500)
    assert s1.tolist() == [233.390625, 233.0859375, 222.7265625, 224.70703125]
    assert s2.tolist() == [31.25] * 4
    expected = [
        (1, 1038.91015625, 1038.91015625, 1.0, 0),
        (2, 1984.0703125, 2077.8203125, 1.0472513496166733, 2),
        (4, 3874.390625, 4155.640625, 1.0725920608482786, 2),
        (8, 7655.03125, 8311.28125, 1.0857279322014526, 2),
        (16, 15216.3125, 16622.5625, 1.092417266009751, 2),
    ]
    for row, pinned in zip(rows, expected, strict=True):
        assert row[0] == pinned[0] and row[4] == pinned[4]
        assert list(row[1:4]) == pytest.approx(list(pinned[1:4]), rel=1e-12)
