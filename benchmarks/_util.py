"""Shared helpers for the benchmark harness.

Every bench regenerates one table or figure of the paper as text, prints
it, and archives it under ``benchmarks/results/`` so a full
``pytest benchmarks/ --benchmark-only`` run leaves the complete set of
regenerated artifacts on disk.
"""

from __future__ import annotations

import json
import os
import pathlib
import platform

import numpy as np

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def bench_provenance() -> dict:
    """Machine/toolchain fingerprint stamped into every ``BENCH_*.json``.

    Trajectory comparisons across checkouts are meaningless without
    knowing the core count and toolchain that produced a number; this
    records both, plus which backend selection was in force.
    """
    return {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "backend_env": os.environ.get("REPRO_BACKEND"),
    }


def emit(name: str, text: str) -> None:
    """Print a rendered artifact and archive it."""
    banner = f"\n{'=' * 72}\n{name}\n{'=' * 72}\n"
    print(banner + text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")


def emit_json(name: str, payload: dict) -> pathlib.Path:
    """Archive a machine-readable benchmark result as ``BENCH_<name>.json``.

    CI jobs and downstream tooling parse these instead of scraping the
    rendered tables; keep payloads JSON-native (numbers, strings, lists).

    Args:
        name: Artifact stem; the file is ``results/BENCH_<name>.json``.
        payload: JSON-serializable result dictionary.

    Returns:
        The written path.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    payload = dict(payload)
    payload.setdefault("provenance", bench_provenance())
    path = RESULTS_DIR / f"BENCH_{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def span(values) -> str:
    """Render an improvement span like the paper's '5x - 90x' annotations."""
    values = [v for v in values if v is not None]
    return f"{min(values):.1f}x - {max(values):.1f}x"
