"""Self-test of the benchmark: tiny runs of every workload.

    python3 -m pytest -q perfbench/test_perfbench.py

Checks that the committed ``BENCHMARK.json`` is the one ``spec.py``
generates, that every workload prints every named metric with its unit
and a well-formed result line, that a deliberately corrupted output is
counted as a failed operation, and that the benchmark refuses to run
without the package source next to it.
"""

from __future__ import annotations

import json
import math
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import spec  # noqa: E402
from workloads import run_workload  # noqa: E402


def run_cli(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_benchmark_json_is_generated_from_spec():
    committed = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert committed == spec.benchmark_json()


def test_every_layer_metric_targets_known_metrics_and_workloads():
    for name, (_unit, _better, targets) in spec.PER_LAYER.items():
        for metric, workload in targets:
            assert metric in spec.END_TO_END or metric in spec.REPORTED, name
            assert workload in spec.WORKLOADS, name


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(spec.WORKLOADS))
def test_tiny_run_prints_every_metric(workload, trace):
    proc = run_cli("--workload", workload, "--seed", "7", "--seconds", "0.4",
                   "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, lines
    assert result["failed"] == 0 and result["attempted"] >= 1
    table = spec.PER_LAYER if trace else spec.END_TO_END
    assert set(result["metrics"]) == set(table)
    for name, entry in table.items():
        metric = result["metrics"][name]
        assert metric["unit"] == entry[0]
        assert math.isfinite(metric["value"])
        assert any(line.startswith(f"{name} = ") and line.endswith(f" {entry[0]}") for line in lines)
    if not trace:
        assert all(result["metrics"][name]["value"] > 0 for name in table)
        for name, (unit, _better) in spec.REPORTED.items():
            assert any(line.startswith(f"{name} = ") and line.endswith(f" {unit}") for line in lines)


@pytest.mark.parametrize("workload", ["spmv_er", "spgemm_rmat", "serve_sat"])
def test_corrupted_output_counts_as_failed(workload):
    outcome = run_workload(workload, seed=7, seconds=0.3, trace=False, tiny=True, corrupt=2)
    assert outcome.failed == 1
    assert outcome.attempted > outcome.failed


def test_refuses_to_run_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_cli("--workload", "spmv_er", "--seed", "1", "--seconds", "1", "--trace", "0",
                   cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
