"""Tests for the command-line interface."""

import json

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.formats.io import read_binary, read_matrix_market
from repro.telemetry import validate_chrome_trace


def test_generate_er_binary(tmp_path):
    out = tmp_path / "g.bin"
    rc = main(["generate", "--family", "er", "--nodes", "500", "--degree", "3",
               "--output", str(out)])
    assert rc == 0
    m = read_binary(out)
    assert m.n_rows == 500
    assert m.nnz > 1000


def test_generate_mtx(tmp_path):
    out = tmp_path / "g.mtx"
    rc = main(["generate", "--family", "rmat", "--nodes", "256", "--degree", "4",
               "--output", str(out)])
    assert rc == 0
    m = read_matrix_market(out)
    assert m.n_rows == 256


def test_generate_dataset_standin(tmp_path):
    out = tmp_path / "tw.bin"
    rc = main(["generate", "--family", "TW", "--nodes", "1024", "--output", str(out)])
    assert rc == 0
    assert read_binary(out).n_rows <= 1024


def test_run_verifies(tmp_path, capsys):
    out = tmp_path / "g.bin"
    main(["generate", "--family", "er", "--nodes", "2000", "--degree", "3",
          "--output", str(out)])
    rc = main(["run", str(out), "--design-point", "TS_ASIC", "--segment-width", "512"])
    captured = capsys.readouterr().out
    assert rc == 0
    assert "verified against dense reference: OK" in captured
    assert "TrafficLedger" in captured


def test_run_unknown_design_point(tmp_path):
    out = tmp_path / "g.bin"
    main(["generate", "--family", "er", "--nodes", "100", "--output", str(out)])
    with pytest.raises(KeyError):
        main(["run", str(out), "--design-point", "TS_TPU"])


def test_estimate_dataset(capsys):
    rc = main(["estimate", "TW"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "TS_ASIC" in out
    assert "GTEPS" in out


def test_estimate_capacity_na(capsys):
    rc = main(["estimate", "Sy-1B"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "n/a" in out  # FPGA points cannot hold 1B nodes


def test_datasets_listing(capsys):
    rc = main(["datasets"])
    out = capsys.readouterr().out
    assert rc == 0
    for name in ("TW", "ara-05", "Sy-2B", "europe_osm"):
        assert name in out


def test_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])


def test_serve_rejects_trace_and_metrics_outputs(capsys):
    # serve never writes these artifacts (its metrics are on /metrics),
    # so the flags are a usage error rather than silently ignored.
    parser = build_parser()
    for flag in ("--trace-out", "--metrics-out"):
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(["serve", flag, "t.json"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--snapshot-interval-s", "5"], "--snapshot-interval-s requires --state-dir"),
        (["--default-deadline-ms", "0"], "--default-deadline-ms must be positive"),
        (["--default-deadline-ms", "-5"], "--default-deadline-ms must be positive"),
        (
            ["--state-dir", "unused", "--snapshot-interval-s", "-1"],
            "--snapshot-interval-s must be positive",
        ),
        (["--max-batch", "0"], "--max-batch must be positive"),
        (["--max-queue", "0"], "--max-queue must be positive"),
        (["--max-delay-ms", "-1"], "--max-delay-ms must be non-negative"),
    ],
    ids=["interval-without-state-dir", "zero-deadline", "negative-deadline",
         "negative-interval", "zero-max-batch", "zero-max-queue",
         "negative-max-delay"],
)
def test_serve_rejects_bad_resilience_flags(monkeypatch, capsys, flags, message):
    import repro.serving
    import repro.serving.http

    def no_server(*args, **kwargs):
        raise AssertionError("a server was built for invalid flags")

    monkeypatch.setattr(repro.serving, "SpMVServer", no_server)
    monkeypatch.setattr(repro.serving.http, "HTTPServingFrontend", no_server)
    assert main(["serve", *flags]) == 2
    assert message in capsys.readouterr().err


def test_run_writes_trace_and_metrics(tmp_path):
    matrix = tmp_path / "g.bin"
    trace = tmp_path / "t.json"
    metrics = tmp_path / "m.prom"
    main(["generate", "--family", "er", "--nodes", "500", "--degree", "3",
          "--output", str(matrix)])
    rc = main(["run", str(matrix), "--segment-width", "128",
               "--trace-out", str(trace), "--metrics-out", str(metrics)])
    assert rc == 0
    payload = json.loads(trace.read_text())
    validate_chrome_trace(payload)
    names = {event["name"] for event in payload["traceEvents"]}
    assert {"spmv.run", "step1", "step2"} <= names
    assert "spmv_run_seconds" in metrics.read_text()


@pytest.mark.parametrize("app", ["bfs", "kcore"])
def test_solve_refuses_trace_out_for_apps_without_spans(tmp_path, capsys, app):
    matrix = tmp_path / "g.bin"
    trace = tmp_path / "t.json"
    metrics = tmp_path / "m.prom"
    main(["generate", "--family", "er", "--nodes", "300", "--degree", "3",
          "--output", str(matrix)])
    capsys.readouterr()
    rc = main(["solve", app, str(matrix), "--trace-out", str(trace)])
    assert rc == 2
    assert not trace.exists()
    assert "only solve pagerank writes a trace" in capsys.readouterr().err
    rc = main(["solve", app, str(matrix), "--metrics-out", str(metrics)])
    assert rc == 0
    assert "spmv_run_seconds" in metrics.read_text()


def test_solve_pagerank_writes_trace(tmp_path):
    matrix = tmp_path / "g.bin"
    trace = tmp_path / "t.json"
    main(["generate", "--family", "er", "--nodes", "300", "--degree", "3",
          "--output", str(matrix)])
    rc = main(["solve", "pagerank", str(matrix), "--iterations", "3",
               "--trace-out", str(trace)])
    assert rc == 0
    payload = json.loads(trace.read_text())
    validate_chrome_trace(payload)
    assert "spmv.run" in {event["name"] for event in payload["traceEvents"]}
