"""Fault-tolerance tests: typed errors, input hardening, the injection
harness, the :class:`~repro.faults.report.FaultReport` and the solvers'
per-iteration reports (DESIGN.md section 8).  The serving sites that consume injected faults are covered
by ``tests/test_resilience.py`` and ``tests/test_serving_chaos.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import TwoStepConfig
from repro.core.twostep import TwoStepEngine
from repro.faults import (
    ANY_INDEX,
    ConfigurationError,
    FaultError,
    FaultPlan,
    FaultReport,
    FaultSpec,
    CorruptPayloadError,
    InjectedFault,
    InvalidMatrixError,
    InvalidVectorError,
    WorkerCrashError,
    active_plan,
    apply_fault,
    inject_faults,
    match_fault,
    validate_inputs,
    validate_matrix,
    validate_vector,
)
from repro.formats.coo import COOMatrix


# ---------------------------------------------------------------------------
# Typed error hierarchy (satellite: consolidated ValueError raises)
# ---------------------------------------------------------------------------


class TestErrorHierarchy:
    def test_input_errors_are_value_errors(self):
        assert issubclass(InvalidMatrixError, ValueError)
        assert issubclass(InvalidVectorError, ValueError)
        assert issubclass(ConfigurationError, ValueError)

    def test_all_share_fault_base(self):
        for cls in (
            InvalidMatrixError,
            ConfigurationError,
            CorruptPayloadError,
            WorkerCrashError,
            InjectedFault,
        ):
            assert issubclass(cls, FaultError)

    def test_legacy_config_raises_stay_catchable(self):
        from repro.backends.native import NativeBackend

        with pytest.raises(ValueError, match="n_jobs must be positive"):
            NativeBackend(n_jobs=0)


# ---------------------------------------------------------------------------
# Input hardening
# ---------------------------------------------------------------------------


class TestValidation:
    def test_vector_shape_mismatch_is_typed(self):
        with pytest.raises(InvalidVectorError, match=r"x must have shape \(4,\)"):
            validate_vector(np.zeros(3), 4)

    def test_vector_nan_rejected_only_in_strict(self):
        bad = np.array([1.0, np.nan, 3.0])
        validate_vector(bad, 3)  # cheap tier passes
        with pytest.raises(InvalidVectorError, match="non-finite"):
            validate_vector(bad, 3, strict=True)

    def test_matrix_out_of_range_column(self, tiny_matrix):
        tampered = COOMatrix(
            tiny_matrix.n_rows,
            tiny_matrix.n_cols,
            tiny_matrix.rows.copy(),
            tiny_matrix.cols.copy(),
            tiny_matrix.vals.copy(),
        )
        tampered.cols[0] = tiny_matrix.n_cols + 5
        with pytest.raises(InvalidMatrixError, match="column index out of range"):
            validate_matrix(tampered, strict=True)

    def test_matrix_duplicate_coordinates(self):
        m = COOMatrix(2, 2, np.array([0, 0]), np.array([1, 1]), np.array([1.0, 2.0]))
        with pytest.raises(InvalidMatrixError, match="duplicate"):
            validate_matrix(m, strict=True)

    def test_matrix_unsorted_stream(self):
        m = COOMatrix(2, 2, np.array([1, 0]), np.array([0, 0]), np.array([1.0, 2.0]))
        with pytest.raises(InvalidMatrixError, match="not sorted row-major"):
            validate_matrix(m, strict=True)

    def test_matrix_nonfinite_values(self, tiny_matrix):
        vals = tiny_matrix.vals.copy()
        vals[0] = np.inf
        m = COOMatrix(
            tiny_matrix.n_rows, tiny_matrix.n_cols,
            tiny_matrix.rows, tiny_matrix.cols, vals,
        )
        with pytest.raises(InvalidMatrixError, match="non-finite"):
            validate_matrix(m, strict=True)

    def test_ragged_triples_rejected_cheaply(self):
        # COOMatrix itself refuses ragged triples, so harden against a
        # duck-typed operand that slipped past construction.
        class Ragged:
            n_rows = n_cols = 2
            rows = np.array([0, 1])
            cols = np.array([0])
            vals = np.array([1.0])

        with pytest.raises(InvalidMatrixError, match="equal length"):
            validate_matrix(Ragged())

    def test_batch_accumuland_width_mismatch(self, tiny_matrix):
        X = np.zeros((tiny_matrix.n_cols, 3))
        Y = np.zeros((tiny_matrix.n_rows, 2))
        with pytest.raises(InvalidVectorError, match="Y must have shape"):
            validate_inputs(tiny_matrix, X, y=Y, batch=True)

    def test_engine_strict_rejects_nan_vector(self, small_er_graph):
        engine = TwoStepEngine(TwoStepConfig(segment_width=256, strict_validate=True))
        x = np.ones(small_er_graph.n_cols)
        x[7] = np.nan
        with pytest.raises(InvalidVectorError):
            engine.run(small_er_graph, x)

    def test_engine_strict_via_environment(self, small_er_graph, monkeypatch):
        monkeypatch.setenv("REPRO_STRICT_VALIDATE", "1")
        engine = TwoStepEngine(TwoStepConfig(segment_width=256))
        x = np.ones(small_er_graph.n_cols)
        x[0] = np.inf
        with pytest.raises(InvalidVectorError):
            engine.run(small_er_graph, x)

    def test_report_records_validation_tier(self, small_er_graph):
        x = np.ones(small_er_graph.n_cols)
        engine = TwoStepEngine(TwoStepConfig(segment_width=256, strict_validate=True))
        for faults in (
            engine.run(small_er_graph, x).faults,
            engine.spgemm(small_er_graph, small_er_graph).faults,
        ):
            assert faults.validated
            assert faults.strict_validate
            assert faults.clean
            assert faults.elapsed_s > 0


# ---------------------------------------------------------------------------
# Injection harness
# ---------------------------------------------------------------------------


class TestFaultPlan:
    def test_spec_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec(site="batch", kind="gremlin")

    def test_spec_rejects_zero_times(self):
        with pytest.raises(ValueError, match="times must be positive"):
            FaultSpec(site="batch", times=0)

    def test_match_consumes_shots(self):
        plan = FaultPlan(FaultSpec(site="batch", index=2, times=1))
        assert plan.match("batch", 1) is None
        assert plan.match("batch", 2) is not None
        assert plan.match("batch", 2) is None  # spent
        assert plan.exhausted
        assert plan.fired == [("batch", 2, "raise")]

    def test_any_index_and_unlimited(self):
        plan = FaultPlan(FaultSpec(site="executor", index=ANY_INDEX, times=-1))
        for i in range(5):
            assert plan.match("executor", i) is not None
        assert not plan.exhausted

    def test_site_isolation(self):
        plan = FaultPlan(FaultSpec(site="batch"))
        assert plan.match("executor", 0) is None

    def test_arming_is_exclusive(self):
        with inject_faults(FaultPlan(FaultSpec(site="batch"))):
            assert active_plan() is not None
            with pytest.raises(RuntimeError, match="already armed"):
                with inject_faults(FaultPlan(FaultSpec(site="executor"))):
                    pass
        assert active_plan() is None

    def test_match_fault_noop_when_unarmed(self):
        assert match_fault("batch", 0) is None

    def test_apply_fault_maps_kinds(self):
        plan = FaultPlan(
            FaultSpec(site="executor", kind="raise", index=0),
            FaultSpec(site="executor", kind="kill", index=1),
            FaultSpec(site="executor", kind="corrupt", index=2),
            FaultSpec(site="executor", kind="delay", index=3, delay_s=0.0),
        )
        with inject_faults(plan):
            for index, error in (
                (0, InjectedFault), (1, WorkerCrashError), (2, CorruptPayloadError)
            ):
                with pytest.raises(error):
                    apply_fault("executor", index)
            apply_fault("executor", 3)  # delay: sleeps, then returns
            apply_fault("executor", 4)  # no matching spec: no-op
        assert [fired[2] for fired in plan.fired] == ["raise", "kill", "corrupt", "delay"]


class TestFaultReport:
    def test_counters_follow_actions(self):
        report = FaultReport()
        report.record("registry.io", 0, "error", attempts=2)
        report.record("registry.io", 1, "error")
        report.record("executor", 1, "injected")
        assert not report.clean
        assert report.summary() == "2 error, 1 injected"

    def test_to_dict_round_trips_events(self):
        report = FaultReport()
        report.record("registry.io", 3, "error", detail="boom")
        data = report.to_dict()
        assert set(data) == {"validated", "strict_validate", "elapsed_s", "events"}
        assert data["events"][0] == {
            "site": "registry.io", "index": 3, "action": "error",
            "detail": "boom", "attempts": 0,
        }

    def test_summary_clean(self):
        assert FaultReport().summary() == "clean"

    def test_record_event_noop_outside_scope(self):
        from repro.faults.report import current_report, record_event

        record_event("batch", 0, "retry")  # must not raise
        assert current_report() is None

    def test_by_site_preserves_insertion_order(self):
        """Events sharing a (site, index) key stay grouped in record order.

        Regression test: grouping must keep group keys in first-occurrence
        order and events inside each group in recording order, even when
        several faults land on the same site index.
        """
        report = FaultReport()
        report.record("executor", 2, "retry", attempts=1)
        report.record("batch", 0, "timeout")
        report.record("executor", 2, "retry", attempts=2)
        report.record("batch", 7, "crash")
        report.record("executor", 2, "fallback")
        report.record("batch", 0, "retry")

        grouped = report.by_site()
        assert list(grouped) == [("executor", 2), ("batch", 0), ("batch", 7)]
        assert [e.action for e in grouped[("executor", 2)]] == [
            "retry",
            "retry",
            "fallback",
        ]
        assert [e.attempts for e in grouped[("executor", 2)][:2]] == [1, 2]
        assert [e.action for e in grouped[("batch", 0)]] == ["timeout", "retry"]
        # Every recorded event appears in exactly one group.
        assert sum(len(v) for v in grouped.values()) == len(report.events)


# ---------------------------------------------------------------------------
# Per-iteration reports in the solvers
# ---------------------------------------------------------------------------


class TestSolverFaultReports:
    def test_pagerank_collects_per_iteration_reports(self, small_er_graph):
        from repro.apps.pagerank import pagerank

        config = TwoStepConfig(segment_width=256)
        result = pagerank(small_er_graph, config, max_iterations=3, tol=0.0)
        assert len(result.fault_reports) == result.iterations
        assert all(report.clean for report in result.fault_reports)

    def test_cg_collects_per_spmv_reports(self):
        from repro.apps.conjugate_gradient import conjugate_gradient, spd_system

        matrix, b = spd_system(2000, avg_degree=4.0, seed=5)
        config = TwoStepConfig(segment_width=256)
        result = conjugate_gradient(matrix, b, config=config, max_iterations=3, tol=0.0)
        assert len(result.fault_reports) == 3
        assert all(report.validated for report in result.fault_reports)


# ---------------------------------------------------------------------------
# CLI flags
# ---------------------------------------------------------------------------


class TestCLIFlags:
    def test_run_parser_accepts_supervision_flags(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["run", "m.mtx", "--backend", "native", "--jobs", "2", "--strict-validate"]
        )
        assert args.backend == "native"
        assert args.jobs == 2
        assert args.strict_validate is True

    def test_solve_parser_defaults_defer_to_environment(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["solve", "pagerank", "m.mtx"])
        assert args.backend is None
        assert args.jobs is None
        assert args.strict_validate is None
