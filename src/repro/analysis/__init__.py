"""Result rendering, matrix statistics and model validation for the
evaluation harness."""

from repro.analysis.reporting import format_table, ascii_bar_chart, format_bytes
from repro.analysis.matrix_stats import MatrixStats, compute_stats, fit_power_law_alpha
from repro.analysis.timeline import render_gantt
from repro.analysis.validation import (
    ValidationCase,
    ValidationReport,
    validate_traffic_model,
)

__all__ = [
    "format_table",
    "ascii_bar_chart",
    "format_bytes",
    "ValidationCase",
    "ValidationReport",
    "validate_traffic_model",
    "render_gantt",
    "MatrixStats",
    "compute_stats",
    "fit_power_law_alpha",
]
