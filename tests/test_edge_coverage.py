"""Edge-path coverage: rendering, datasets, CLI errors, allocator corners."""

import numpy as np
import pytest

from repro.analysis.reporting import ascii_bar_chart, format_table
from repro.analysis.timeline import render_gantt
from repro.cli import main
from repro.core.schedule import build_its_schedule
from repro.generators.datasets import CPU_GRAPHS, CUSTOM_HW_GRAPHS, GPU_GRAPHS, instantiate


class TestRenderingEdges:
    def test_table_with_empty_rows(self):
        text = format_table(["a", "b"], [])
        assert "a" in text and "b" in text

    def test_table_zero_and_negative_floats(self):
        text = format_table(["v"], [[0.0], [-12345.678], [-0.0001]])
        assert "0" in text
        assert "-1.23e+04" in text or "-12345.678" in text.replace(" ", "")

    def test_bar_chart_single_value(self):
        text = ascii_bar_chart(["g"], {"A": [5.0]}, width=10)
        assert "#" in text and "5" in text

    def test_bar_chart_equal_values_log_scale(self):
        text = ascii_bar_chart(["g1", "g2"], {"A": [3.0, 3.0]}, width=12, log_scale=True)
        assert text.count("3") >= 2

    def test_gantt_single_segment_single_iteration(self):
        schedule = build_its_schedule(np.array([5.0]), np.array([5.0]), 1)
        text = render_gantt(schedule, width=20)
        assert "iter 0 step 1" in text and "iter 0 step 2" in text

    def test_gantt_many_segments_digit_wrap(self):
        # 12 segments: digits wrap modulo 10 without crashing.
        schedule = build_its_schedule(np.ones(12), np.ones(12), 2)
        text = render_gantt(schedule, width=60)
        assert "iter 1 step 2" in text


class TestDatasetInstantiation:
    @pytest.mark.parametrize("spec", CUSTOM_HW_GRAPHS + GPU_GRAPHS, ids=lambda s: s.name)
    def test_every_table4_table5_standin_generates(self, spec):
        graph = instantiate(spec, max_nodes=1 << 10)
        assert graph.nnz > 0
        assert graph.n_rows <= 1 << 10

    @pytest.mark.parametrize(
        "spec", [s for s in CPU_GRAPHS if s.family != "powerlaw"], ids=lambda s: s.name
    )
    def test_every_table6_mesh_uniform_standin_generates(self, spec):
        graph = instantiate(spec, max_nodes=1 << 10)
        assert graph.nnz > 0

    def test_instantiate_custom_seed_changes_graph(self):
        spec = CUSTOM_HW_GRAPHS[0]
        a = instantiate(spec, max_nodes=512, seed=1)
        b = instantiate(spec, max_nodes=512, seed=2)
        assert not (
            a.nnz == b.nnz
            and np.array_equal(a.rows, b.rows)
            and np.array_equal(a.cols, b.cols)
        )


class TestCLIErrors:
    def test_run_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            main(["run", str(tmp_path / "missing.bin")])

    def test_estimate_unknown_dataset(self):
        with pytest.raises(KeyError):
            main(["estimate", "not-a-dataset"])

    def test_figure_unknown_id(self):
        with pytest.raises(KeyError):
            main(["figure", "fig99"])

    def test_generate_unknown_family(self, tmp_path):
        with pytest.raises(KeyError):
            main(["generate", "--family", "bogus", "--output", str(tmp_path / "g.bin")])
