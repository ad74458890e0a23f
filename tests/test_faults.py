"""Fault-tolerance tests: typed errors, input hardening and the
injection harness (DESIGN.md section 8).  The serving sites that consume
injected faults are covered by ``tests/test_resilience.py`` and
``tests/test_serving_chaos.py``.
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
        with pytest.raises(ValueError, match="segment_width must be positive"):
            TwoStepConfig(segment_width=0)


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
        """The strict tier is recorded once, on ``engine.config``, and
        guards ``spgemm`` operands as well as ``run`` vectors."""
        engine = TwoStepEngine(TwoStepConfig(segment_width=256, strict_validate=True))
        assert engine.config.strict_validate is True
        g = small_er_graph
        poisoned = COOMatrix(g.n_rows, g.n_cols, g.rows, g.cols, g.vals.copy())
        poisoned.vals[0] = np.nan
        with pytest.raises(InvalidMatrixError):
            engine.spgemm(g, poisoned)


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


# ---------------------------------------------------------------------------
# CLI flags
# ---------------------------------------------------------------------------


class TestCLIFlags:
    def test_run_parser_accepts_supervision_flags(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["run", "m.mtx", "--backend", "vectorized", "--strict-validate"]
        )
        assert args.backend == "vectorized"
        assert args.strict_validate is True

    def test_solve_parser_defaults_defer_to_environment(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["solve", "pagerank", "m.mtx"])
        assert args.backend is None
        assert args.strict_validate is None
